#include "thorbench/src/layers.h"

#include <thread>

#include "src/html/arena_parser.h"
#include "src/util/metrics.h"
#include "thorbench/src/stats.h"

namespace thorbench {

namespace core = thor::core;
namespace serve = thor::serve;

namespace {

/// Measurement rounds per probe; each figure is the median over rounds, so
/// a burst of host noise costs one round, not the figure.
constexpr int kRounds = 5;

/// Aggregate pages/s of `threads` threads, each running `per_thread` over
/// the whole stream once.
template <typename Fn>
double ParallelRate(size_t pages, int threads, Fn per_thread) {
  double start = NowMs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(per_thread);
  for (std::thread& worker : workers) worker.join();
  double elapsed_s = (NowMs() - start) / 1000.0;
  return static_cast<double>(pages) * threads / std::max(elapsed_s, 1e-9);
}

}  // namespace

void MeasureServingLayers(const ServeSet& set, serve::TemplateStore* store,
                          int nproc, SpanLog* log, Result* out) {
  const size_t n = set.requests.size();
  const auto batches = Batches(set.requests, kThordBatch);
  thor::html::HotParser parser;
  core::HotExtractor extractor;
  thor::MetricsRegistry metrics_1;
  thor::MetricsRegistry metrics_n;
  serve::ExtractionService service_1(store, ServiceDefaults(&metrics_1, 1));
  serve::ExtractionService service_n(store,
                                     ServiceDefaults(&metrics_n, nproc));
  for (const auto& batch : batches) {
    (void)service_1.ExtractBatch(batch);
    (void)service_n.ExtractBatch(batch);
  }

  // Interleaved per batch, so a slow stretch of the host hits every probe
  // alike: parse and extract each page, then the same batch through the
  // service at one and at nproc threads.
  std::vector<double> parse_ns, extract_ns, service_1_ns, service_n_ns;
  std::vector<double> parse_rate_1, parse_rate_n;
  auto parse_all = [&set] {
    thor::html::HotParser local;
    for (const Request& request : set.requests) (void)local.Parse(request.html);
  };
  const double per_page = 1e6 / static_cast<double>(n);
  for (int round = 0; round < kRounds; ++round) {
    double parse_ms = 0.0, extract_ms = 0.0, service_1_ms = 0.0,
           service_n_ms = 0.0;
    size_t i = 0;
    for (const auto& batch : batches) {
      for (const Request& request : batch) {
        double t0 = NowMs();
        (void)parser.Parse(request.html);
        double t1 = NowMs();
        (void)extractor.Extract(
            request.html,
            set.compiled[static_cast<size_t>(set.request_site[i++])]);
        double t2 = NowMs();
        parse_ms += t1 - t0;
        extract_ms += t2 - t1;
      }
      double t3 = NowMs();
      (void)service_1.ExtractBatch(batch);
      double t4 = NowMs();
      (void)service_n.ExtractBatch(batch);
      double t5 = NowMs();
      service_1_ms += t4 - t3;
      service_n_ms += t5 - t4;
    }
    parse_ns.push_back(parse_ms * per_page);
    extract_ns.push_back(extract_ms * per_page);
    service_1_ns.push_back(service_1_ms * per_page);
    service_n_ns.push_back(service_n_ms * per_page);
    parse_rate_1.push_back(ParallelRate(n, 1, parse_all));
    parse_rate_n.push_back(ParallelRate(n, nproc, parse_all));
  }

  // Traced pass: one span tree per request and per batch, untimed.
  if (log != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      int root = log->Open("req " + std::to_string(i));
      double t0 = NowMs();
      (void)parser.Parse(set.requests[i].html);
      double t1 = NowMs();
      (void)extractor.Extract(
          set.requests[i].html,
          set.compiled[static_cast<size_t>(set.request_site[i])]);
      double t2 = NowMs();
      log->Close(root);
      log->Add("html::HotParser::Parse", t0, t1, root);
      log->Add("core::HotExtractor::Extract", t1, t2, root);
    }
    for (size_t b = 0; b < batches.size(); ++b) {
      for (auto* service : {&service_1, &service_n}) {
        const char* label = service == &service_1 ? "t1 batch " : "tN batch ";
        int root = log->Open(label + std::to_string(b));
        double t0 = NowMs();
        (void)service->ExtractBatch(batches[b]);
        log->Close(root);
        log->Add("serve::ExtractionService::ExtractBatch", t0, NowMs(), root);
      }
    }
  }

  // Store reads: what a cold cache pays per site.
  double load_ms = 0.0;
  for (const std::string& name : set.names) {
    int root = log != nullptr ? log->Open(name) : -1;
    double t0 = NowMs();
    auto loaded = store->Load(name);
    double t1 = NowMs();
    if (log != nullptr) {
      log->Close(root);
      log->Add("serve::TemplateStore::Load", t0, t1, root);
    }
    if (!loaded.ok()) out->Fail("store load failed for " + name);
    load_ms += t1 - t0;
  }

  const double parse = Median(parse_ns);
  const double extract = Median(extract_ns);
  const double service = Median(service_1_ns);
  out->Add(&out->layers, "html.hot_parse_ns_per_page", parse, "ns");
  out->Add(&out->layers, "html.hot_parse_scaling",
           Median(parse_rate_n) / std::max(Median(parse_rate_1), 1e-9), "x");
  out->Add(&out->layers, "core.hot_extract_ns_per_page", extract, "ns");
  out->Add(&out->layers, "core.locate_partition_ns_per_page",
           extract - parse, "ns");
  out->Add(&out->layers, "serve.overhead_ns_per_page", service - extract,
           "ns");
  out->Add(&out->layers, "serve.extract_scaling",
           service / std::max(Median(service_n_ns), 1e-9), "x");
  out->Add(&out->layers, "serve.store_load_ms",
           load_ms / std::max<size_t>(1, set.names.size()), "ms");
}

void AddLearnLayers(const StageTimes& times, Result* out) {
  double sites = std::max(1, times.sites);
  out->Add(&out->layers, "deepweb.probe_ms_per_site", times.probe_ms / sites,
           "ms");
  out->Add(&out->layers, "deepweb.label_ms_per_site", times.label_ms / sites,
           "ms");
  out->Add(&out->layers, "deepweb.pages_dropped_ratio",
           static_cast<double>(times.pages_dropped) /
               std::max<double>(1.0, static_cast<double>(times.pages)),
           "ratio");
  out->Add(&out->layers, "core.thor_ms_per_site", times.thor_ms / sites,
           "ms");
  out->Add(&out->layers, "core.thor_cluster_ranking_ms_per_site",
           times.cluster_ranking_ms / sites, "ms");
  out->Add(&out->layers, "core.thor_phase2_extraction_ms_per_site",
           times.phase2_ms / sites, "ms");
  out->Add(&out->layers, "core.thor_remap_results_ms_per_site",
           times.remap_ms / sites, "ms");
  out->Add(&out->layers, "core.registry_learn_ms_per_site",
           times.learn_ms / sites, "ms");
  out->Add(&out->layers, "core.compile_us_per_site", times.compile_us / sites,
           "us");
  out->Add(&out->layers, "serve.store_put_ms", times.put_ms / sites, "ms");
  out->Add(&out->layers, "serve.store_bytes_per_site",
           static_cast<double>(times.store_bytes) / sites, "bytes");
}

void AddServeCounts(const ServeCounts& counts, Result* out) {
  out->Add(&out->layers, "serve.template_hit_count",
           static_cast<double>(counts.hit), "count");
  out->Add(&out->layers, "serve.template_miss_count",
           static_cast<double>(counts.miss), "count");
  out->Add(&out->layers, "serve.low_confidence_count",
           static_cast<double>(counts.low_confidence), "count");
}

}  // namespace thorbench
