// Serving-layer throughput: pages/second through ExtractionService over a
// multi-site workload, template-hit path vs cold-relearn path, at 1 and N
// threads. Also breaks one request's life down per stage (learn, store
// commit, store load, batch extract) in the style of bench_fig5_time.
//
// Expected shape: the hit path is orders of magnitude faster than a cold
// relearn (which runs the full Probe->Cluster->Discover pipeline), and the
// batched hit path scales with threads because extraction is pure.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "src/util/json.h"
#include "src/util/metrics.h"
#include "src/util/parallel.h"

namespace thor {
namespace {

namespace fs = std::filesystem;

struct Workload {
  std::vector<serve::ExtractionService::Request> requests;
  std::vector<std::string> site_names;
};

/// Round-robin interleaving across sites: the access pattern a multi-site
/// crawler front-end produces, and the worst case for a tiny cache.
Workload BuildWorkload(const std::vector<deepweb::SiteSample>& samples) {
  Workload workload;
  size_t max_pages = 0;
  for (size_t s = 0; s < samples.size(); ++s) {
    workload.site_names.push_back("site" + std::to_string(s));
    max_pages = std::max(max_pages, samples[s].pages.size());
  }
  for (size_t p = 0; p < max_pages; ++p) {
    for (size_t s = 0; s < samples.size(); ++s) {
      const auto& pages = samples[s].pages;
      if (p >= pages.size()) continue;
      workload.requests.push_back(
          {workload.site_names[s], pages[p].html});
    }
  }
  return workload;
}

struct RunStats {
  double seconds = 0.0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t relearns = 0;
};

int64_t CounterValue(const MetricsRegistry& metrics, const std::string& name) {
  auto snapshot = metrics.Snapshot();
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

int Main(int argc, char** argv) {
  int num_sites = argc > 1 ? std::atoi(argv[1]) : 6;
  std::string json_path =
      argc > 2 ? argv[2] : "BENCH_serve_throughput.json";
  const int host_threads = DefaultThreads();
  // Always measure an oversubscribed N-thread row too: on a 1-core host it
  // demonstrates determinism (same counters) rather than speedup.
  const std::vector<int> thread_counts = {1, std::max(host_threads, 4)};

  // Train and serve on disjoint probe rounds: the store holds templates
  // learned from seed-7 samples, the workload replays seed-99 samples.
  auto train = bench::BuildPaperCorpus(num_sites, /*seed=*/7);
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  fleet_options.seed = 7;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  deepweb::ProbeOptions serve_probe;
  serve_probe.seed = 99;
  std::vector<deepweb::SiteSample> serve_samples;
  for (const auto& site : fleet) {
    serve_samples.push_back(deepweb::BuildSiteSample(site, serve_probe));
  }
  Workload workload = BuildWorkload(serve_samples);

  fs::path store_dir = fs::temp_directory_path() / "thor_bench_serve_store";
  fs::remove_all(store_dir);

  // --- per-stage breakdown of one site's life cycle --------------------
  bench::PrintHeader("Serving: per-stage time (ms) for one site");
  bench::PrintRow("", {"stage", "ms"});
  double learn_s = 0.0;
  double put_s = 0.0;
  double load_s = 0.0;
  std::vector<core::TemplateRegistry> registries;
  {
    auto store = serve::TemplateStore::Open(store_dir.string());
    if (!store.ok()) {
      std::fprintf(stderr, "store open failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    for (int s = 0; s < num_sites; ++s) {
      auto pages = core::ToPages(train[static_cast<size_t>(s)]);
      core::TemplateRegistry registry;
      learn_s += bench::TimeSeconds([&] {
        auto result = core::RunThor(pages, core::ThorOptions{});
        if (result.ok()) {
          registry = core::TemplateRegistry::Learn(pages, *result);
        }
      });
      put_s += bench::TimeSeconds([&] {
        (void)store->Put("site" + std::to_string(s), registry);
      });
      registries.push_back(std::move(registry));
    }
    load_s += bench::TimeSeconds([&] {
      for (int s = 0; s < num_sites; ++s) {
        (void)store->Load("site" + std::to_string(s));
      }
    });
  }
  double per_site = 1000.0 / num_sites;
  bench::PrintRow("", {"learn", bench::Fmt(learn_s * per_site)});
  bench::PrintRow("", {"store_put", bench::Fmt(put_s * per_site)});
  bench::PrintRow("", {"store_load", bench::Fmt(load_s * per_site)});

  // --- throughput: template-hit path vs cold-relearn path --------------
  auto run_workload = [&](int threads, bool cold) -> RunStats {
    fs::path dir = store_dir;
    if (cold) {
      // Cold path: empty store, every site relearned on first touch.
      dir = fs::temp_directory_path() / "thor_bench_serve_cold";
      fs::remove_all(dir);
    }
    auto store = serve::TemplateStore::Open(dir.string());
    MetricsRegistry metrics;
    serve::ServiceOptions options;
    options.threads = threads;
    options.metrics = &metrics;
    serve::ExtractionService::SampleProvider sampler;
    if (cold) {
      sampler = [&](const std::string& site) -> std::vector<core::Page> {
        int id = std::atoi(site.c_str() + 4);
        if (id < 0 || id >= num_sites) return {};
        return core::ToPages(train[static_cast<size_t>(id)]);
      };
    }
    serve::ExtractionService service(&*store, options, std::move(sampler));
    RunStats stats;
    stats.seconds = bench::TimeSeconds(
        [&] { (void)service.ExtractBatch(workload.requests); });
    stats.hits = CounterValue(metrics, "serve.template_hit");
    stats.misses = CounterValue(metrics, "serve.template_miss");
    stats.relearns = CounterValue(metrics, "serve.relearns");
    return stats;
  };

  bench::PrintHeader("Serving throughput: pages/sec, hit vs cold-relearn");
  bench::PrintRow("", {"threads", "path", "pages/s", "hit", "miss",
                       "relearn"});
  struct Row {
    int threads;
    bool cold;
    RunStats stats;
  };
  std::vector<Row> rows;
  for (int threads : thread_counts) {
    for (bool cold : {false, true}) {
      RunStats stats = run_workload(threads, cold);
      rows.push_back({threads, cold, stats});
      double pages_per_s =
          workload.requests.size() / std::max(stats.seconds, 1e-9);
      bench::PrintRow(
          "", {std::to_string(threads), cold ? "cold" : "hit",
               bench::Fmt(pages_per_s, 1), std::to_string(stats.hits),
               std::to_string(stats.misses), std::to_string(stats.relearns)});
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("serve_throughput");
  json.Key("num_sites").Int(num_sites);
  json.Key("requests").Int(static_cast<long long>(workload.requests.size()));
  json.Key("host_threads").Int(host_threads);
  json.Key("nproc").Int(std::thread::hardware_concurrency());
  json.Key("stage_ms_per_site").BeginObject();
  json.Key("learn").Double(learn_s * per_site);
  json.Key("store_put").Double(put_s * per_site);
  json.Key("store_load").Double(load_s * per_site);
  json.EndObject();
  json.Key("results").BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("threads").Int(row.threads);
    json.Key("path").String(row.cold ? "cold" : "hit");
    json.Key("seconds").Double(row.stats.seconds);
    json.Key("pages_per_s")
        .Double(workload.requests.size() /
                std::max(row.stats.seconds, 1e-9));
    json.Key("template_hit").Int(row.stats.hits);
    json.Key("template_miss").Int(row.stats.misses);
    json.Key("relearns").Int(row.stats.relearns);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "%s\n", json.str().c_str());
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf(
      "shape check: hit path >> cold path (cold pays the full\n"
      "Probe->Cluster->Discover pipeline once per site).\n");
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
