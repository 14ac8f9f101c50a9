// learn_cold: the paper-scale learn path, 50 sites x 110 probes, each site
// probed, labeled, analyzed (Phase I/II), learned and committed. The
// serving hot path does no work here; probing, legacy-tree parsing,
// RunThor and store commits do all of it. Its P/R is the paper's Fig 10.

#include <filesystem>

#include "src/core/thor.h"
#include "src/deepweb/site_generator.h"
#include "thorbench/src/inputs.h"
#include "thorbench/src/layers.h"
#include "thorbench/src/stats.h"
#include "thorbench/src/workloads.h"

namespace thorbench {

namespace core = thor::core;
namespace deepweb = thor::deepweb;
namespace serve = thor::serve;

namespace {

constexpr int kSites = 50;

double F1(const core::PrecisionRecall& pr) {
  double p = pr.Precision();
  double r = pr.Recall();
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

bool SamePr(const core::PrecisionRecall& a, const core::PrecisionRecall& b) {
  return a.correct == b.correct && a.extracted == b.extracted &&
         a.truth == b.truth;
}

struct Pass {
  core::PrecisionRecall pagelets;
  std::vector<double> site_ms;
  double rate = 0.0;  ///< sites learned per second of learn path
  int64_t failed = 0;
  std::vector<LearnedSite> kept;  ///< when asked to keep the sites
};

/// One pass over the fleet: every site through the learn path.
Pass LearnPass(const std::vector<deepweb::DeepWebSite>& fleet,
               uint64_t probe_base, serve::TemplateStore* store,
               StageTimes* times, SpanLog* log, bool keep) {
  Pass pass;
  for (const deepweb::DeepWebSite& site : fleet) {
    LearnedSite learned = LearnSite(site, probe_base, store, times, log);
    if (!learned.ok) {
      ++pass.failed;
      continue;
    }
    pass.site_ms.push_back(learned.latency_ms);
    pass.pagelets.Add(learned.pagelets);
    if (keep) pass.kept.push_back(std::move(learned));
  }
  // Probe-to-commit time only: the compile and the quality score that
  // LearnSite runs after the commit are not the learn path.
  double learn_ms = 0.0;
  for (double ms : pass.site_ms) learn_ms += ms;
  pass.rate = static_cast<double>(pass.site_ms.size()) * 1000.0 /
              std::max(learn_ms, 1e-9);
  return pass;
}

/// bench_fig10_overall's TTag computation: BuildCorpus, then RunThor and
/// EvaluatePagelets per site with default options.
core::PrecisionRecall Fig10Reference(
    const std::vector<deepweb::DeepWebSite>& fleet, uint64_t probe_base) {
  deepweb::ProbeOptions probe;
  probe.seed = probe_base;
  core::PrecisionRecall total;
  for (const deepweb::SiteSample& sample : deepweb::BuildCorpus(fleet, probe)) {
    auto result = core::RunThor(core::ToPages(sample), core::ThorOptions{});
    if (!result.ok()) continue;
    total.Add(core::EvaluatePagelets(sample, *result));
  }
  return total;
}

}  // namespace

Result RunLearnCold(const Options& options) {
  Result result;
  const int nproc = Nproc();
  const uint64_t probe_base = options.seed;

  const double setup_start = NowMs();
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = kSites;
  fleet_options.seed = kFleetSeed;
  const std::vector<deepweb::DeepWebSite> fleet =
      deepweb::GenerateSiteFleet(fleet_options);
  const std::string dir = RunDir(options, "store");
  std::filesystem::remove_all(dir);
  auto opened = serve::TemplateStore::Open(dir);
  if (fleet.size() != static_cast<size_t>(kSites) || !opened.ok()) {
    result.Fail("set-up failed");
    return result;
  }
  const double setup_s = (NowMs() - setup_start) / 1000.0;
  serve::TemplateStore store = std::move(*opened);

  // Whole passes until the measuring time is used up.
  // A traced run spends half its time untraced, for the overhead ratio.
  const double measure_s =
      options.trace ? options.seconds / 2 : options.seconds;
  std::vector<Pass> passes;
  const double end = NowMs() + measure_s * 1000.0;
  do {
    passes.push_back(LearnPass(fleet, probe_base, &store, nullptr, nullptr,
                               /*keep=*/false));
  } while (NowMs() < end);

  std::vector<double> site_ms;
  std::vector<double> rates;
  for (const Pass& pass : passes) {
    site_ms.insert(site_ms.end(), pass.site_ms.begin(), pass.site_ms.end());
    rates.push_back(pass.rate);
    result.attempted += kSites;
    result.failed += pass.failed;
    if (!SamePr(pass.pagelets, passes.front().pagelets)) {
      result.Fail("learn_cold: pagelet P/R changed between passes");
    }
  }
  const core::PrecisionRecall& pagelets = passes.front().pagelets;
  if (!SamePr(Fig10Reference(fleet, probe_base), pagelets)) {
    result.Fail("learn_cold: pagelet P/R differs from the "
                "bench_fig10_overall TTag computation");
  }

  const double items_per_s = Median(rates);
  Tail tail = SelectWindowedTail(site_ms).tail;
  result.Add(&result.end_to_end, "items_per_s", items_per_s, "1/s");
  result.Add(&result.end_to_end, "latency_p50_ms", Median(site_ms), "ms");
  result.Add(&result.end_to_end, "latency_tail_ms", tail.value, "ms");
  result.Add(&result.end_to_end, "setup_s", setup_s, "s");
  result.Add(&result.extra, "latency_tail_percentile", tail.percentile, "p");
  result.Add(&result.extra, "latency_tail_samples",
             static_cast<double>(tail.samples), "count");
  result.Add(&result.extra, "pagelet_f1", F1(pagelets), "ratio");
  result.Add(&result.extra, "pagelet_precision", pagelets.Precision(),
             "ratio");
  result.Add(&result.extra, "pagelet_recall", pagelets.Recall(), "ratio");
  result.Add(&result.extra, "fail_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<int64_t>(1, result.attempted)),
             "ratio");
  result.shape["items_per_s"] = items_per_s;
  result.shape["pagelet_f1"] = F1(pagelets);

  if (options.trace) {
    auto log = std::make_unique<SpanLog>(NowMs());
    StageTimes times;
    std::vector<Pass> traced;
    const double traced_end = NowMs() + options.seconds / 2 * 1000.0;
    do {
      traced.push_back(LearnPass(fleet, probe_base, &store, &times, log.get(),
                                 /*keep=*/traced.empty()));
    } while (NowMs() < traced_end);
    std::vector<double> traced_rates;
    for (const Pass& pass : traced) traced_rates.push_back(pass.rate);

    // The serving probes run on what this workload learned: its own probe
    // pages against its own templates.
    ServeSet set;
    std::vector<std::vector<std::string>> pages;
    for (LearnedSite& learned : traced.front().kept) {
      set.names.push_back(SiteName(learned.sample.site_id));
      set.compiled.push_back(std::move(learned.compiled));
      std::vector<std::string> html;
      for (const deepweb::LabeledPage& page : learned.sample.pages) {
        html.push_back(page.html);
      }
      pages.push_back(std::move(html));
    }
    Interleave(pages, &set);
    MeasureServingLayers(set, &store, nproc, log.get(), &result);
    AddLearnLayers(times, &result);
    thor::MetricsRegistry metrics;
    serve::ExtractionService service(&store, ServiceDefaults(&metrics, 1));
    for (const auto& batch : Batches(set.requests, kThordBatch)) {
      (void)service.ExtractBatch(batch);
    }
    AddServeCounts(ReadServeCounts(metrics), &result);
    // serve_drift is not one of the benchmark's gated workloads (see
    // README), so the background relearn path is measured here.
    MeasureRelearnLayers(options, log.get(), &result);
    result.Add(&result.layers, "trace.overhead_ratio",
               Median(traced_rates) / std::max(items_per_s, 1e-9), "ratio");
    WriteFile(OutPath(options, "trace.json"),
              thor::ChromeTraceJson(log->Snapshot()));
  }
  result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(RunDir(options, ""));
  return result;
}

}  // namespace thorbench
