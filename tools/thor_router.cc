// thor-router — consistent-hash front-end for a sharded thord fleet.
//
// Accepts the same NDJSON and HTTP/1.1 protocol as `thord --listen`, but
// owns no templates: each request's site is mapped onto a shard with
// consistent hashing and forwarded to a healthy replica of that shard
// (the workers run `thord --listen`). Replica failure turns into bounded,
// idempotency-safe retries — a request is re-sent only when it provably
// never reached a live worker, or when the worker explicitly shed it with
// a 503 — and per-endpoint circuit breakers take repeatedly failing
// replicas out of rotation with half-open probes to reinstate them.
//
//   thor-router --shard 127.0.0.1:7001,127.0.0.1:7002 \
//               --shard 127.0.0.1:7003,127.0.0.1:7004 --listen 0
//
// Each --shard lists one shard's replicas; shard order defines ring
// placement, so every router given the same --shard sequence routes
// identically (no coordination between routers).
//
// Shutdown mirrors thord: SIGTERM/SIGINT drains (every queued request is
// answered with a typed shed, streams stay complete), a second signal
// cancels the in-flight batch.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/hash_ring.h"
#include "src/fleet/router.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/serve/server_loop.h"
#include "src/util/failpoint.h"
#include "src/util/metrics.h"
#include "src/util/strings.h"
#include "tools/flags.h"

namespace thor {
namespace {

volatile std::sig_atomic_t g_signals = 0;

void OnSignal(int /*signum*/) { g_signals = g_signals + 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: thor-router --shard HOST:PORT[,HOST:PORT...] [options]\n"
      "\n"
      "options:\n"
      "  --shard LIST            comma-separated replica endpoints of one\n"
      "                          shard (repeat per shard; order defines "
      "ring\n"
      "                          placement)\n"
      "  --listen PORT           bind port (default 0 = ephemeral)\n"
      "  --port-file PATH        write the bound port to PATH\n"
      "  --batch N               max requests per forward batch "
      "(default 32)\n"
      "  --threads N             forward fan-out threads (default: "
      "THOR_THREADS)\n"
      "  --max-backlog N         shed requests once N are queued "
      "(default 0 = unbounded)\n"
      "  --deadline-ms MS        per-batch forward deadline "
      "(default 0 = none)\n"
      "  --retries N             replicas one request may try "
      "(default 0 = all)\n"
      "  --eject-after N         consecutive failures that eject a "
      "replica\n"
      "                          (default 3)\n"
      "  --halfopen-ms MS        ejected replica sit-out before a probe "
      "(default 500)\n"
      "  --vnodes N              virtual nodes per shard on the ring "
      "(default 64)\n"
      "  --connect-timeout-ms MS worker connect timeout (default 1000)\n"
      "  --request-timeout-ms MS worker request timeout (default 10000)\n"
      "  --idle-timeout-ms MS    close idle client connections after MS\n"
      "                          (default 60000)\n"
      "  --metrics               print the metrics registry to stderr at "
      "exit\n"
      "  --list-failpoints       print every failpoint name and exit\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::vector<std::string> shard_specs;
  int listen_port = 0;
  std::string port_file;
  serve::ServerLoopOptions loop_options;
  fleet::RouterOptions router_options;
  double idle_timeout_ms = 60000.0;
  bool print_metrics = false;
  using flags::kIntMax;
  using flags::kMaxMs;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, int64_t lo, int64_t hi) {
      return static_cast<int>(flags::Int(flag, next(flag), lo, hi, Usage));
    };
    auto real = [&](const char* flag, double lo, double hi) {
      return flags::Double(flag, next(flag), lo, hi, Usage);
    };
    if (!std::strcmp(argv[i], "--shard")) {
      shard_specs.push_back(next("--shard"));
    } else if (!std::strcmp(argv[i], "--listen")) {
      listen_port = count("--listen", 0, 65535);
    } else if (!std::strcmp(argv[i], "--port-file")) {
      port_file = next("--port-file");
    } else if (!std::strcmp(argv[i], "--batch")) {
      loop_options.batch = count("--batch", 1, kIntMax);
    } else if (!std::strcmp(argv[i], "--threads")) {
      router_options.threads = count("--threads", 0, 1024);
    } else if (!std::strcmp(argv[i], "--max-backlog")) {
      loop_options.max_backlog =
          static_cast<size_t>(count("--max-backlog", 0, kIntMax));
    } else if (!std::strcmp(argv[i], "--deadline-ms")) {
      loop_options.batch_deadline_ms = real("--deadline-ms", 0.0, kMaxMs);
    } else if (!std::strcmp(argv[i], "--retries")) {
      router_options.max_attempts = count("--retries", 0, kIntMax);
    } else if (!std::strcmp(argv[i], "--eject-after")) {
      router_options.eject_after = count("--eject-after", 1, kIntMax);
    } else if (!std::strcmp(argv[i], "--halfopen-ms")) {
      router_options.halfopen_ms = real("--halfopen-ms", 0.0, kMaxMs);
    } else if (!std::strcmp(argv[i], "--vnodes")) {
      router_options.vnodes = count("--vnodes", 1, 4096);
    } else if (!std::strcmp(argv[i], "--connect-timeout-ms")) {
      router_options.connect_timeout_ms =
          real("--connect-timeout-ms", 0.0, kMaxMs);
    } else if (!std::strcmp(argv[i], "--request-timeout-ms")) {
      router_options.request_timeout_ms =
          real("--request-timeout-ms", 0.0, kMaxMs);
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
      idle_timeout_ms = real("--idle-timeout-ms", 0.0, kMaxMs);
    } else if (!std::strcmp(argv[i], "--metrics")) {
      print_metrics = true;
    } else if (!std::strcmp(argv[i], "--list-failpoints")) {
      for (const std::string& name : FailpointRegistry::Global()->Names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      return Usage();
    }
  }
  if (shard_specs.empty()) return Usage();

  std::vector<std::vector<fleet::Endpoint>> shards;
  for (const std::string& spec : shard_specs) {
    std::vector<fleet::Endpoint> replicas;
    for (const std::string& part : Split(spec, ',')) {
      if (part.empty()) continue;
      auto endpoint = fleet::ParseEndpoint(part);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "bad --shard endpoint %s: %s\n", part.c_str(),
                     endpoint.status().ToString().c_str());
        return 2;
      }
      replicas.push_back(*endpoint);
    }
    if (replicas.empty()) {
      std::fprintf(stderr, "--shard needs at least one endpoint\n");
      return 2;
    }
    shards.push_back(std::move(replicas));
  }

  MetricsRegistry metrics;
  loop_options.metrics = &metrics;
  router_options.metrics = &metrics;
  fleet::Router router(std::move(shards), router_options);

  serve::ServerLoop loop(
      [&router](const std::vector<fleet::Router::Request>& requests,
                const Deadline& deadline) {
        return router.ForwardBatch(requests, deadline);
      },
      loop_options);

  net::IgnoreSigPipe();

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  sigset_t drain_signals;
  sigemptyset(&drain_signals);
  sigaddset(&drain_signals, SIGTERM);
  sigaddset(&drain_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_signals, nullptr);

  net::NetServerOptions net_options;
  net_options.port = static_cast<uint16_t>(listen_port);
  net_options.idle_timeout_ms = idle_timeout_ms;
  net_options.metrics = &metrics;
  net::NetServer server(&loop, net_options);
  auto port = server.Start();
  if (!port.ok()) {
    std::fprintf(stderr, "cannot listen: %s\n",
                 port.status().ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    // Write-then-rename so a poller never reads a half-written port.
    std::string tmp = port_file + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << *port << "\n";
    out.close();
    std::rename(tmp.c_str(), port_file.c_str());
  }
  std::fprintf(stderr, "thor-router listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(*port));

  std::atomic<bool> worker_done{false};
  std::thread worker([&] {
    loop.Run(
        [&server](uint64_t tag, const std::string& site,
                  const serve::ExtractionService::Response& response) {
          server.Deliver(tag, site, response);
        },
        [] {});
    worker_done.store(true);
  });
  pthread_sigmask(SIG_UNBLOCK, &drain_signals, nullptr);

  while (g_signals == 0 && !worker_done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (g_signals > 0) server.BeginDrain();

  bool cancelled = false;
  while (!worker_done.load()) {
    if (!cancelled && g_signals >= 2) {
      loop.CancelInFlight();
      cancelled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worker.join();
  server.Shutdown(2000.0);

  if (print_metrics) {
    std::fprintf(stderr, "%s\n", metrics.Snapshot().ToJson().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
