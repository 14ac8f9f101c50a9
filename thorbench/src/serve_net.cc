// serve_net: open loop over loopback TCP into NetServer -> ServerLoop ->
// ExtractionService, replaying the serve_hot stream. The extraction work
// per request equals serve_hot's, so front-end and queueing changes show
// here and not there.
//
// One generator thread sends pipelined NDJSON over nproc keep-alive
// connections on a fixed schedule; one receiver thread reads the answers.
// Every request is timed from when it was due, so a stall is charged to
// every request queued behind it. The rates come from a fixed ladder that
// spans the current knee, walked coarse-then-fine.

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/serve/server_loop.h"
#include "src/serve/wire.h"
#include "src/util/json.h"
#include "thorbench/src/inputs.h"
#include "thorbench/src/layers.h"
#include "thorbench/src/stats.h"
#include "thorbench/src/workloads.h"

namespace thorbench {

namespace serve = thor::serve;
namespace net = thor::net;

namespace {

/// Fixed reference rate, well below the knee: end-to-end latency is read
/// here so it does not move with the knee.
constexpr double kReferenceRate = 10000.0;
/// Rate of the unreported warm-up rung (kMinRungRequests requests).
constexpr double kWarmupRate = 20000.0;
/// The ladder: 5% steps from 1k to 160k req/s. The walk starts at the
/// first rung above the reference rate and moves in strides of six rungs
/// (1.34x) before refining, so a knee anywhere on the ladder is found.
constexpr double kLadderFirst = 1000.0;
constexpr double kLadderLast = 160000.0;
constexpr double kLadderStep = 1.05;
constexpr size_t kCoarseStride = 6;
/// A rung whose answers are not all in this long after its last due time
/// failed outright.
constexpr double kDrainTimeoutMs = 5000.0;
/// Attempts a ladder rung gets before it counts as failed.
constexpr int kRungAttempts = 3;
/// Requests of the traced rung that get a span tree each (the rest only
/// feed the figures, keeping the trace file small).
constexpr size_t kTracedRequests = 5000;
/// Requests per rung at least: twenty tail windows.
constexpr size_t kMinRungRequests = 20 * kTailWindow;

/// One ExtractBatch the loop ran, as the wrapped BatchFn saw it.
struct BatchRecord {
  double start_ms = 0.0;
  double end_ms = 0.0;
  size_t size = 0;
  uint64_t first = 0;  ///< requests processed before this batch
};

/// Wraps the BatchFn the ServerLoop runs: times each batch on the
/// consumer thread.
class BatchRecorder {
 public:
  void Record(double start_ms, double end_ms, size_t size) {
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ != nullptr) {
      int root = live_->Add("batch @" + std::to_string(processed_), start_ms,
                            end_ms);
      live_->Add("serve::ExtractionService::ExtractBatch", start_ms, end_ms,
                 root);
    }
    records_.push_back({start_ms, end_ms, size, processed_});
    processed_ += size;
  }
  /// Records a span per batch while set (the traced rung).
  void SetLive(SpanLog* log) {
    std::lock_guard<std::mutex> lock(mu_);
    live_ = log;
  }
  std::vector<BatchRecord> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<BatchRecord> records_;
  uint64_t processed_ = 0;
  SpanLog* live_ = nullptr;
};

struct Conn {
  net::Socket sock;
  std::string out;        ///< generator only: bytes not yet written
  std::string in;         ///< receiver only: partial response line
  std::mutex mu;          ///< guards fifo
  std::deque<uint64_t> fifo;  ///< global request numbers awaiting answers
};

enum : uint8_t { kPending = 0, kOk = 1, kShed = 2, kMismatch = 3 };

/// Everything one rung recorded per request.
struct RungLog {
  uint64_t first = 0;  ///< global number of the rung's first request
  std::vector<double> due;
  std::vector<double> sent;
  std::vector<double> received;
  std::vector<uint8_t> state;
};

struct Rung {
  RungStats stats;
  RungVerdict verdict = RungVerdict::kPass;
  double served_rate = 0.0;  ///< answered requests per second
  double end_ms = 0.0;       ///< last answer
  RungLog log;
};

class LoadGen {
 public:
  LoadGen(const std::vector<std::string>& lines,
          const std::vector<std::string>& expected)
      : lines_(lines), expected_(expected) {}
  ~LoadGen() { Stop(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens the connections and starts the receiver. Call on the thread
  /// that will run the rungs: it also sets that thread's timer slack to
  /// 1 ns, so the generator can sleep between sends instead of spinning.
  bool Connect(uint16_t port, int connections) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (int c = 0; c < connections; ++c) {
      auto sock = net::ConnectTcp("127.0.0.1", port);
      if (!sock.ok()) return false;
      auto conn = std::make_unique<Conn>();
      conn->sock = std::move(*sock);
      net::SetNoDelay(conn->sock.fd());
      conns_.push_back(std::move(conn));
    }
    receiver_ = std::thread([this] { ReceiveLoop(); });
    return true;
  }

  void Stop() {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }

  /// Offers `rate` req/s for `seconds`, then waits for every answer.
  Rung RunRung(double rate, double seconds, const LadderLimits& limits) {
    Rung rung;
    const size_t count = std::max<size_t>(kMinRungRequests,
                                          static_cast<size_t>(rate * seconds));
    RungLog& log = rung.log;
    log.first = next_;
    log.due.assign(count, 0.0);
    log.sent.assign(count, 0.0);
    log.received.assign(count, 0.0);
    log.state.assign(count, kPending);
    received_.store(0);
    current_.store(&log);

    OpenLoopSchedule schedule(rate, NowMs() + 1.0);
    const double half_ms = schedule.Due(count / 2);
    double backlog_sum[2] = {0.0, 0.0};
    double backlog_n[2] = {0.0, 0.0};
    size_t i = 0;
    while (i < count) {
      double now = NowMs();
      uint64_t due_by = std::min<uint64_t>(schedule.DueBy(now), count);
      for (; i < due_by; ++i) {
        uint64_t global = next_++;
        Conn& conn = *conns_[global % conns_.size()];
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          conn.fifo.push_back(global);
        }
        conn.out += lines_[global % lines_.size()];
        log.due[i] = schedule.Due(i);
        log.sent[i] = now;
        schedule.RecordSend(i, now);
        int half = log.due[i] < half_ms ? 0 : 1;
        backlog_sum[half] +=
            static_cast<double>(i - received_.load(std::memory_order_relaxed));
        backlog_n[half] += 1.0;
      }
      Flush();
      if (i < count) {
        // Sleep through the gap (the generator runs with a 1 ns timer
        // slack, see Connect), so it leaves its core to the server between
        // sends even at the top of the ladder.
        double wait = schedule.Due(i) - NowMs();
        if (wait > 0.02) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>((wait - 0.01) * 1000)));
        }
      }
    }
    const double last_due = schedule.Due(count - 1);
    while (received_.load() < count && NowMs() < last_due + kDrainTimeoutMs) {
      Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    current_.store(nullptr);
    // The receiver may still be inside a batch of lines for this rung.
    std::lock_guard<std::mutex> settle(receive_mu_);

    RungStats& stats = rung.stats;
    stats.rate = rate;
    stats.seconds = seconds;
    stats.sent = count;
    std::vector<double> latency;
    double first_due = log.due.front();
    for (size_t k = 0; k < count; ++k) {
      switch (log.state[k]) {
        case kOk:
          ++stats.ok;
          latency.push_back(log.received[k] - log.due[k]);
          rung.end_ms = std::max(rung.end_ms, log.received[k]);
          break;
        case kShed:
          ++stats.shed;
          break;
        case kMismatch:
          ++mismatches_;
          ++stats.failed;
          break;
        default:
          ++stats.failed;
          break;
      }
    }
    stats.tail = SelectWindowedTail(latency).tail;
    stats.lag_tail_ms = schedule.LagTail();
    max_lag_ms_ = std::max(max_lag_ms_, schedule.max_lag_ms());
    stats.backlog_first = backlog_sum[0] / std::max(1.0, backlog_n[0]);
    stats.backlog_second = backlog_sum[1] / std::max(1.0, backlog_n[1]);
    rung.served_rate = static_cast<double>(stats.ok) * 1000.0 /
                       std::max(rung.end_ms - first_due, 1e-9);
    rung.verdict = Judge(stats, limits);
    if (received_.load() < count) broken_ = true;
    return rung;
  }

  int64_t mismatches() const { return mismatches_; }
  /// Requests sent over all rungs, the warm-up included.
  uint64_t sent() const { return next_; }
  bool broken() const { return broken_; }
  double max_lag_ms() const { return max_lag_ms_; }
  int64_t bytes_out() const { return bytes_out_; }
  int64_t bytes_in() const { return bytes_in_.load(); }

 private:
  /// Writes what each connection has pending without blocking; true when
  /// everything queued is on the wire.
  bool Flush() {
    bool all = true;
    for (auto& conn : conns_) {
      if (conn->out.empty()) continue;
      net::IoResult io =
          net::WriteSome(conn->sock.fd(), conn->out.data(), conn->out.size());
      if (io.status == net::IoStatus::kOk) {
        bytes_out_ += static_cast<int64_t>(io.bytes);
        conn->out.erase(0, io.bytes);
      } else if (io.status != net::IoStatus::kWouldBlock) {
        broken_ = true;
        conn->out.clear();
      }
      all = all && conn->out.empty();
    }
    return all;
  }

  void ReceiveLoop() {
    std::vector<pollfd> fds;
    for (auto& conn : conns_) fds.push_back({conn->sock.fd(), POLLIN, 0});
    std::vector<char> buf(1 << 16);
    while (!stop_.load()) {
      if (poll(fds.data(), fds.size(), 20) <= 0) continue;
      std::lock_guard<std::mutex> lock(receive_mu_);
      for (size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& conn = *conns_[c];
        for (;;) {
          net::IoResult io =
              net::ReadSome(conn.sock.fd(), buf.data(), buf.size());
          if (io.status != net::IoStatus::kOk) break;
          bytes_in_.fetch_add(static_cast<int64_t>(io.bytes));
          conn.in.append(buf.data(), io.bytes);
        }
        double now = NowMs();
        size_t start = 0;
        for (size_t eol; (eol = conn.in.find('\n', start)) != std::string::npos;
             start = eol + 1) {
          std::string_view line(conn.in.data() + start, eol - start);
          uint64_t global = 0;
          {
            std::lock_guard<std::mutex> fifo_lock(conn.mu);
            if (conn.fifo.empty()) continue;
            global = conn.fifo.front();
            conn.fifo.pop_front();
          }
          RungLog* log = current_.load();
          if (log == nullptr || global < log->first ||
              global - log->first >= log->state.size()) {
            continue;
          }
          size_t k = global - log->first;
          log->received[k] = now;
          if (line == expected_[global % expected_.size()]) {
            log->state[k] = kOk;
          } else if (line.find("\"source\":\"shed\"") !=
                     std::string_view::npos) {
            log->state[k] = kShed;
          } else {
            log->state[k] = kMismatch;
          }
          received_.fetch_add(1);
        }
        conn.in.erase(0, start);
      }
    }
  }

  const std::vector<std::string>& lines_;
  const std::vector<std::string>& expected_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_ = 0;
  std::atomic<RungLog*> current_{nullptr};
  std::atomic<size_t> received_{0};
  std::mutex receive_mu_;
  std::atomic<bool> stop_{false};
  int64_t mismatches_ = 0;
  bool broken_ = false;
  double max_lag_ms_ = 0.0;
  int64_t bytes_out_ = 0;
  std::atomic<int64_t> bytes_in_{0};
  std::thread receiver_;  // last: joins before the members it reads go
};

/// Server-side view of one rung: the batches that ran its requests,
/// matched to requests by submission position (the loop runs requests in
/// arrival order, which across connections is the send order up to the
/// interleaving of one read burst).
struct LoopView {
  std::vector<double> wait_ms;      ///< due -> batch start
  std::vector<double> overhead_ms;  ///< latency - wait - batch busy
  double batch_size_mean = 0.0;
  double busy_ratio = 0.0;
};

/// One progress line per rung, on stderr: stdout carries numbers only once
/// every output check has passed.
void ReportRung(const char* label, const Rung& rung) {
  const RungStats& stats = rung.stats;
  std::fprintf(stderr,
               "%s %8.0f req/s: %-8s tail p%g %.3f ms, lag tail %.3f ms, "
               "backlog %.1f -> %.1f, sent %zu ok %zu shed %zu failed %zu\n",
               label, stats.rate, VerdictName(rung.verdict),
               stats.tail.percentile, stats.tail.value, stats.lag_tail_ms,
               stats.backlog_first, stats.backlog_second, stats.sent, stats.ok,
               stats.shed, stats.failed);
}

/// Median latency from due time of a rung's answered requests.
double MedianLatency(const Rung& rung) {
  std::vector<double> latency;
  for (size_t k = 0; k < rung.log.state.size(); ++k) {
    if (rung.log.state[k] == kOk) {
      latency.push_back(rung.log.received[k] - rung.log.due[k]);
    }
  }
  return Median(latency);
}

/// `log` receives one span tree per request of the rung.
LoopView ViewRung(const Rung& rung, const std::vector<BatchRecord>& batches,
                  SpanLog* log) {
  LoopView view;
  const RungLog& rl = rung.log;
  const uint64_t first = rl.first;
  const uint64_t last = first + rl.state.size();
  double busy = 0.0;
  size_t count = 0;
  size_t sizes = 0;
  for (const BatchRecord& batch : batches) {
    if (batch.first + batch.size <= first || batch.first >= last) continue;
    ++count;
    sizes += batch.size;
    busy += batch.end_ms - batch.start_ms;
    for (uint64_t g = std::max(first, batch.first);
         g < std::min(last, batch.first + batch.size); ++g) {
      size_t k = g - first;
      if (rl.state[k] != kOk) continue;
      double wait = batch.start_ms - rl.due[k];
      double latency = rl.received[k] - rl.due[k];
      view.wait_ms.push_back(wait);
      view.overhead_ms.push_back(latency - wait -
                                 (batch.end_ms - batch.start_ms));
      if (log != nullptr && k < kTracedRequests) {
        int root = log->Add("req " + std::to_string(g), rl.due[k],
                            rl.received[k]);
        log->Add("loadgen.send", rl.due[k], rl.sent[k], root);
        log->Add("server_loop.wait", rl.sent[k],
                 std::max(rl.sent[k], batch.start_ms), root);
        log->Add("serve::ExtractionService::ExtractBatch", batch.start_ms,
                 batch.end_ms, root);
        log->Add("net.respond", batch.end_ms, rl.received[k], root);
      }
    }
  }
  view.batch_size_mean =
      count > 0 ? static_cast<double>(sizes) / static_cast<double>(count) : 0.0;
  double span_ms = rung.end_ms - rl.due.front();
  view.busy_ratio = busy / std::max(span_ms, 1e-9);
  return view;
}

/// Request lines out, and the 1-thread reference's wire lines back.
struct Wire {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  ServeCounts counts;  ///< hit/miss of one reference pass
};

Wire BuildWire(serve::TemplateStore* store, const ServeSet& set) {
  Wire wire;
  thor::MetricsRegistry metrics;
  serve::ExtractionService reference(store, ServiceDefaults(&metrics, 1));
  for (const auto& batch : Batches(set.requests, kThordBatch)) {
    std::vector<Response> responses = reference.ExtractBatch(batch);
    for (size_t k = 0; k < batch.size(); ++k) {
      thor::JsonWriter json;
      json.BeginObject();
      json.Key("site").String(batch[k].site);
      json.Key("html").String(batch[k].html);
      json.EndObject();
      wire.lines.push_back(json.str() + "\n");
      wire.expected.push_back(
          serve::ResponseToJson(batch[k].site, responses[k]));
    }
  }
  wire.counts = ReadServeCounts(metrics);
  return wire;
}

/// The daemon as `thord --listen` wires it with its defaults, on an
/// ephemeral loopback port, with the BatchFn the loop runs wrapped by a
/// BatchRecorder.
class Daemon {
 public:
  Daemon(serve::TemplateStore* store, int threads)
      : service_(store, ServiceDefaults(&metrics_, threads)),
        loop_(
            [this](const std::vector<Request>& batch,
                   const thor::Deadline& deadline) {
              double t0 = NowMs();
              std::vector<Response> responses =
                  service_.ExtractBatch(batch, deadline);
              recorder_.Record(t0, NowMs(), batch.size());
              return responses;
            },
            LoopOptions(&metrics_)),
        server_(&loop_, NetOptions(&metrics_)) {}
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  thor::Result<uint16_t> Start() {
    auto port = server_.Start();
    if (!port.ok()) return port;
    worker_ = std::thread([this] {
      loop_.Run(
          [this](uint64_t tag, const std::string& site,
                 const Response& response) {
            server_.Deliver(tag, site, response);
          },
          [] {});
    });
    return port;
  }

  /// Drains the loop and closes every connection. Idempotent.
  void Stop() {
    if (!worker_.joinable()) return;
    server_.BeginDrain();
    worker_.join();
    server_.Shutdown(2000.0);
  }

  BatchRecorder& recorder() { return recorder_; }
  const thor::MetricsRegistry& metrics() const { return metrics_; }
  int64_t shed() const { return loop_.counters().shed; }

 private:
  static serve::ServerLoopOptions LoopOptions(thor::MetricsRegistry* metrics) {
    serve::ServerLoopOptions options;
    options.batch = static_cast<int>(kThordBatch);
    options.metrics = metrics;
    return options;
  }
  static net::NetServerOptions NetOptions(thor::MetricsRegistry* metrics) {
    net::NetServerOptions options;
    options.metrics = metrics;
    return options;
  }

  thor::MetricsRegistry metrics_;
  serve::ExtractionService service_;
  BatchRecorder recorder_;
  serve::ServerLoop loop_;
  net::NetServer server_;
  std::thread worker_;  // last: joined before the members it uses go
};

/// The network probe serve_net and serve_hot's traced pass share: the
/// stream's wire lines with their 1-thread reference answers, the daemon
/// as `thord --listen` wires it, and one generator over nproc keep-alive
/// connections.
class NetProbe {
 public:
  NetProbe(serve::TemplateStore* store, const ServeSet& set)
      : wire_(BuildWire(store, set)),
        daemon_(store, Nproc()),
        gen_(wire_.lines, wire_.expected) {}

  /// Starts the daemon, connects, and runs the warm-up rung, checked like
  /// every rung but not reported: it loads every site into the LRU and
  /// brings every pool thread's extractor and the sockets up to the load
  /// of the lower ladder before anything counts. False, with `out`
  /// failed, when the server cannot be reached.
  bool Start(Result* out) {
    auto port = daemon_.Start();
    if (!port.ok()) {
      out->Fail("server start failed: " + port.status().ToString());
      return false;
    }
    if (!gen_.Connect(*port, Nproc())) {
      out->Fail("cannot connect to the server");
      return false;
    }
    ReportRung("warm-up", gen_.RunRung(kWarmupRate, 0.0, limits_));
    return true;
  }

  /// A rung at `rate` for `seconds`; with `live`, a span per batch
  /// recorded inside the BatchFn and a span tree per request.
  Rung RunRung(double rate, double seconds, SpanLog* live = nullptr) {
    daemon_.recorder().SetLive(live);
    Rung rung = gen_.RunRung(rate, seconds, limits_);
    daemon_.recorder().SetLive(nullptr);
    if (live != nullptr) ViewRung(rung, daemon_.recorder().Snapshot(), live);
    return rung;
  }

  bool broken() const { return gen_.broken(); }

  /// Stops the generator and the daemon. Fails `out` when any answer
  /// differed from the 1-thread reference, a rung never drained, or the
  /// `reference` rung lost or shed requests.
  void Finish(const Rung& reference, Result* out) {
    gen_.Stop();
    daemon_.Stop();
    if (gen_.mismatches() > 0) {
      out->Fail("network probe: " + std::to_string(gen_.mismatches()) +
                " responses differ from the 1-thread reference");
    }
    if (gen_.broken()) out->Fail("network probe: a rung never drained");
    if (reference.stats.ok != reference.stats.sent) {
      out->Fail("network probe: the reference rung lost or shed requests");
    }
  }

  /// The server_loop.* and net.* figures of the `reference` rung.
  void AddFigures(const Rung& reference, Result* out) {
    LoopView view = ViewRung(reference, daemon_.recorder().Snapshot(),
                             nullptr);
    const double sent = std::max<double>(1.0, gen_.sent());
    out->Add(&out->extra, "server_loop.batch_size_mean",
             view.batch_size_mean, "count");
    out->Add(&out->extra, "server_loop.busy_ratio", view.busy_ratio,
             "ratio");
    out->Add(&out->extra, "server_loop.wait_ms_p50", Median(view.wait_ms),
             "ms");
    out->Add(&out->extra, "server_loop.wait_ms_tail",
             SelectWindowedTail(view.wait_ms).tail.value, "ms");
    out->Add(&out->extra, "server_loop.shed",
             static_cast<double>(daemon_.shed()), "count");
    out->Add(&out->extra, "net.overhead_ms_p50", Median(view.overhead_ms),
             "ms");
    out->Add(&out->extra, "net.bytes_out_per_request",
             static_cast<double>(gen_.bytes_out()) / sent, "bytes");
    out->Add(&out->extra, "net.bytes_in_per_request",
             static_cast<double>(gen_.bytes_in()) / sent, "bytes");
    out->Add(&out->extra, "loadgen.lag_ms_max", gen_.max_lag_ms(), "ms");
  }

  /// Hit/miss/low-confidence counts of the daemon's service.
  ServeCounts counts() const { return ReadServeCounts(daemon_.metrics()); }
  /// Hit/miss/low-confidence counts of one 1-thread reference pass.
  const ServeCounts& reference_counts() const { return wire_.counts; }

 private:
  const Wire wire_;
  Daemon daemon_;
  LoadGen gen_;
  LadderLimits limits_;
};

}  // namespace

Result RunServeNet(const Options& options) {
  Result result;
  const int nproc = Nproc();
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>(NowMs());
  net::IgnoreSigPipe();

  ServeFixture fixture;
  std::string error;
  const double setup_start = NowMs();
  if (!BuildServeFixture(kServeSites, options.train_seed, options.seed,
                         RunDir(options, "store"), log.get(), &fixture,
                         &error)) {
    result.Fail("set-up failed: " + error);
    return result;
  }
  const double setup_s = (NowMs() - setup_start) / 1000.0;

  NetProbe probe(fixture.store.get(), fixture.set);
  if (!probe.Start(&result)) return result;
  std::vector<Rung> rungs;
  rungs.push_back(
      probe.RunRung(kReferenceRate, std::max(1.0, options.seconds * 0.3)));
  ReportRung("reference", rungs.back());
  const std::vector<double> rates =
      LadderRates(kLadderFirst, kLadderLast, kLadderStep);
  const size_t start = static_cast<size_t>(
      std::upper_bound(rates.begin(), rates.end(), kReferenceRate) -
      rates.begin());
  LadderSearch ladder(rates, kCoarseStride, start);
  const double rung_s = std::max(0.2, options.seconds * 0.05);
  for (long next = ladder.Next(); next >= 0 && !probe.broken();
       next = ladder.Next()) {
    // A rung fails only when all its attempts fail: host stalls of tens of
    // ms strike single attempts at random, a real overload every one.
    bool passed = false;
    for (int attempt = 0;
         attempt < kRungAttempts && !passed && !probe.broken(); ++attempt) {
      rungs.push_back(probe.RunRung(ladder.rate(next), rung_s));
      passed = rungs.back().verdict == RungVerdict::kPass;
      ReportRung("rung", rungs.back());
    }
    ladder.Record(passed);
  }
  if (options.trace) {
    // Traced rung: the reference rate again, with spans.
    Rung traced = probe.RunRung(
        kReferenceRate, std::max(1.0, options.seconds * 0.3), log.get());
    result.Add(&result.layers, "trace.overhead_ratio",
               MedianLatency(rungs.front()) /
                   std::max(MedianLatency(traced), 1e-9),
               "ratio");
  }
  probe.Finish(rungs.front(), &result);
  if (!result.correct) return result;
  const Rung& reference_rung = rungs.front();

  // Hit/miss: the reference rung replays whole cycles of the stream.
  ServeCounts counts = probe.counts();
  const double hit_ratio =
      static_cast<double>(counts.hit) /
      static_cast<double>(std::max<int64_t>(1, counts.hit + counts.miss));

  const Rung* best = nullptr;
  int64_t ok = 0, shed = 0, lost = 0, invalid = 0;
  for (const Rung& rung : rungs) {
    result.attempted += static_cast<int64_t>(rung.stats.sent);
    result.failed += static_cast<int64_t>(rung.stats.failed + rung.stats.shed);
    ok += static_cast<int64_t>(rung.stats.ok);
    shed += static_cast<int64_t>(rung.stats.shed);
    lost += static_cast<int64_t>(rung.stats.failed);
    invalid += rung.verdict == RungVerdict::kInvalid ? 1 : 0;
    if (&rung != &rungs.front() && rung.verdict == RungVerdict::kPass &&
        (best == nullptr || rung.stats.rate > best->stats.rate)) {
      best = &rung;
    }
  }
  if (best == nullptr) {
    result.Fail("serve_net: no ladder rung met the latency limit");
    return result;
  }

  const Tail& tail = reference_rung.stats.tail;
  result.Add(&result.end_to_end, "items_per_s", best->served_rate, "1/s");
  result.Add(&result.end_to_end, "latency_p50_ms",
             MedianLatency(reference_rung), "ms");
  result.Add(&result.end_to_end, "latency_tail_ms", tail.value, "ms");
  result.Add(&result.end_to_end, "setup_s", setup_s, "s");
  result.Add(&result.extra, "max_rate_rps", best->stats.rate, "1/s");
  result.Add(&result.extra, "reference_rate_rps", kReferenceRate, "1/s");
  result.Add(&result.extra, "latency_tail_percentile", tail.percentile, "p");
  result.Add(&result.extra, "latency_tail_samples",
             static_cast<double>(tail.samples), "count");
  result.Add(&result.extra, "template_hit_ratio", hit_ratio, "ratio");
  result.Add(&result.extra, "fail_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<int64_t>(1, result.attempted)),
             "ratio");
  result.Add(&result.extra, "rungs_run", static_cast<double>(rungs.size()),
             "count");
  result.Add(&result.extra, "rungs_invalid", static_cast<double>(invalid),
             "count");
  result.Add(&result.extra, "requests_sent",
             static_cast<double>(result.attempted), "count");
  result.Add(&result.extra, "requests_ok", static_cast<double>(ok), "count");
  result.Add(&result.extra, "requests_shed", static_cast<double>(shed),
             "count");
  result.Add(&result.extra, "requests_failed", static_cast<double>(lost),
             "count");
  probe.AddFigures(reference_rung, &result);
  result.shape["items_per_s"] = best->served_rate;
  result.shape["max_rate_rps"] = best->stats.rate;

  if (options.trace) {
    MeasureServingLayers(fixture.set, fixture.store.get(), nproc, log.get(),
                         &result);
    AddLearnLayers(fixture.times, &result);
    AddServeCounts(probe.reference_counts(), &result);
    WriteFile(OutPath(options, "trace.json"),
              thor::ChromeTraceJson(log->Snapshot()));
  }
  result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(RunDir(options, ""));
  return result;
}

void MeasureNetLayers(serve::TemplateStore* store, const ServeSet& set,
                      double seconds, SpanLog* log, Result* out) {
  NetProbe probe(store, set);
  if (!probe.Start(out)) return;
  Rung rung =
      probe.RunRung(kReferenceRate, std::max(1.0, seconds * 0.1), log);
  probe.Finish(rung, out);
  if (out->correct) probe.AddFigures(rung, out);
}

}  // namespace thorbench
