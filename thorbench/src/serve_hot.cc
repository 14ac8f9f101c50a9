// serve_hot: the template-hit serving path alone. Parse, locate and
// partition do almost all the work; no network, no learning. This is
// where the tag-registry lock, the metrics lock and the LRU mutex show.

#include <filesystem>

#include "thorbench/src/inputs.h"
#include "thorbench/src/layers.h"
#include "thorbench/src/stats.h"
#include "thorbench/src/workloads.h"

namespace thorbench {

namespace serve = thor::serve;

namespace {

struct LoopStats {
  std::vector<double> batch_ms;
  std::vector<double> pass_rates;  ///< pages/s of each full pass
  int64_t pages = 0;
  int64_t failed = 0;
};

/// Replays the whole stream in passes until `seconds` run out (at least
/// one pass). Every pass's response digest must equal `expected`.
LoopStats ReplayPasses(serve::ExtractionService* service,
                       const std::vector<std::vector<Request>>& batches,
                       double seconds, uint64_t expected, SpanLog* log,
                       Result* result) {
  LoopStats stats;
  const double end = NowMs() + seconds * 1000.0;
  int pass = 0;
  do {
    Digest digest;
    double pass_ms = 0.0;
    int64_t pass_pages = 0;
    for (size_t b = 0; b < batches.size(); ++b) {
      double t0 = NowMs();
      std::vector<Response> responses = service->ExtractBatch(batches[b]);
      double t1 = NowMs();
      if (log != nullptr) {
        int root = log->Add("batch " + std::to_string(pass) + "." +
                                std::to_string(b),
                            t0, t1);
        log->Add("serve::ExtractionService::ExtractBatch", t0, t1, root);
      }
      stats.batch_ms.push_back(t1 - t0);
      pass_ms += t1 - t0;
      pass_pages += static_cast<int64_t>(responses.size());
      for (const Response& response : responses) {
        digest.Response(response);
        if (!response.error.empty()) ++stats.failed;
      }
    }
    stats.pages += pass_pages;
    stats.pass_rates.push_back(static_cast<double>(pass_pages) * 1000.0 /
                               std::max(pass_ms, 1e-9));
    if (digest.value() != expected) {
      result->Fail("serve_hot pass " + std::to_string(pass) +
                   ": response digest differs from the 1-thread reference");
    }
    ++pass;
  } while (NowMs() < end);
  return stats;
}

}  // namespace

Result RunServeHot(const Options& options) {
  Result result;
  const int nproc = Nproc();
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>(NowMs());

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
  const auto batches = Batches(fixture.set.requests, kThordBatch);

  // Reference: the same stream through a 1-thread service.
  thor::MetricsRegistry reference_metrics;
  serve::ExtractionService reference(fixture.store.get(),
                                     ServiceDefaults(&reference_metrics, 1));
  Digest reference_digest;
  for (const auto& batch : batches) {
    for (const Response& response : reference.ExtractBatch(batch)) {
      reference_digest.Response(response);
    }
  }
  const ServeCounts reference_counts = ReadServeCounts(reference_metrics);

  // Served at nproc threads with a thord-style metrics sink. The first
  // pass loads every site into the LRU and is checked like the others.
  thor::MetricsRegistry metrics;
  serve::ExtractionService service(fixture.store.get(),
                                   ServiceDefaults(&metrics, nproc));
  LoopStats warm = ReplayPasses(&service, batches, 0.0,
                                reference_digest.value(), nullptr, &result);
  if (!(ReadServeCounts(metrics) == reference_counts)) {
    result.Fail("serve_hot: hit/miss counts at nproc threads differ from "
                "the 1-thread reference");
  }

  // A traced run spends half its time untraced, for the overhead ratio.
  const double measure_s =
      options.trace ? options.seconds / 2 : options.seconds;
  LoopStats stats = ReplayPasses(&service, batches, measure_s,
                                 reference_digest.value(), nullptr, &result);
  const int64_t passes = 1 + static_cast<int64_t>(stats.pass_rates.size());
  ServeCounts counts = ReadServeCounts(metrics);
  if (counts.hit != reference_counts.hit * passes ||
      counts.miss != reference_counts.miss * passes) {
    result.Fail("serve_hot: hit/miss counts drifted across passes");
  }
  const double hit_ratio =
      static_cast<double>(reference_counts.hit) /
      static_cast<double>(std::max<int64_t>(
          1, reference_counts.hit + reference_counts.miss));
  result.attempted = warm.pages + stats.pages;
  result.failed = warm.failed + stats.failed;

  const double items_per_s = Median(stats.pass_rates);
  Tail tail = SelectWindowedTail(stats.batch_ms).tail;
  result.Add(&result.end_to_end, "items_per_s", items_per_s, "1/s");
  result.Add(&result.end_to_end, "latency_p50_ms", Median(stats.batch_ms),
             "ms");
  result.Add(&result.end_to_end, "latency_tail_ms", tail.value, "ms");
  result.Add(&result.end_to_end, "setup_s", setup_s, "s");
  result.Add(&result.extra, "latency_tail_percentile", tail.percentile, "p");
  result.Add(&result.extra, "latency_tail_samples",
             static_cast<double>(tail.samples), "count");
  result.Add(&result.extra, "template_hit_ratio", hit_ratio, "ratio");
  result.Add(&result.extra, "fail_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<int64_t>(1, result.attempted)),
             "ratio");
  result.shape["items_per_s"] = items_per_s;
  result.shape["pages_per_site"] =
      static_cast<double>(fixture.set.requests.size()) / kServeSites;

  if (options.trace) {
    LoopStats traced = ReplayPasses(&service, batches, options.seconds / 2,
                                    reference_digest.value(), log.get(),
                                    &result);
    MeasureServingLayers(fixture.set, fixture.store.get(), nproc, log.get(),
                         &result);
    // serve_net is not one of the benchmark's gated workloads (see
    // README), so its server_loop and net layers are measured here.
    MeasureNetLayers(fixture.store.get(), fixture.set, options.seconds,
                     log.get(), &result);
    AddLearnLayers(fixture.times, &result);
    AddServeCounts(reference_counts, &result);
    result.Add(&result.layers, "trace.overhead_ratio",
               Median(traced.pass_rates) / std::max(items_per_s, 1e-9),
               "ratio");
    WriteFile(OutPath(options, "trace.json"),
              thor::ChromeTraceJson(log->Snapshot()));
  }
  result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(RunDir(options, ""));
  return result;
}

}  // namespace thorbench
