#include "thorbench/src/inputs.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "src/core/thor.h"
#include "src/deepweb/prober.h"
#include "src/deepweb/site_generator.h"

namespace thorbench {

namespace core = thor::core;
namespace deepweb = thor::deepweb;
namespace serve = thor::serve;

LearnedSite LearnSite(const deepweb::DeepWebSite& site, uint64_t probe_base,
                      serve::TemplateStore* store, StageTimes* times,
                      SpanLog* log, int parent) {
  LearnedSite learned;
  const int id = site.config().site_id;
  SpanScope site_span(log, SiteName(id), parent);
  const double start = NowMs();

  deepweb::ProbeOptions probe;
  probe.seed = ProbeSeed(probe_base, id);
  double t0 = NowMs();
  std::vector<deepweb::QueryResponse> responses;
  {
    SpanScope span(log, "deepweb::ProbeSite", site_span.id());
    responses = deepweb::ProbeSite(site, probe);
  }
  double t1 = NowMs();
  learned.sample.site_id = id;
  std::vector<core::Page> pages;
  {
    SpanScope span(log, "deepweb::LabelPage", site_span.id());
    learned.sample.pages.reserve(responses.size());
    for (const deepweb::QueryResponse& response : responses) {
      learned.sample.pages.push_back(deepweb::LabelPage(response));
    }
    pages = core::ToPages(learned.sample);
  }
  double t2 = NowMs();
  thor::Result<core::ThorResult> result = [&] {
    SpanScope span(log, "core::RunThor", site_span.id());
    auto run = core::RunThor(pages, core::ThorOptions{});
    if (log != nullptr && run.ok()) {
      // The pipeline's own stage spans, re-parented under this site.
      std::map<int, int> remap;
      for (size_t i = 0; i < run->report.spans.size(); ++i) {
        const thor::TraceSpan& stage = run->report.spans[i];
        int stage_parent = stage.parent >= 0 && remap.count(stage.parent)
                               ? remap[stage.parent]
                               : span.id();
        remap[static_cast<int>(i)] =
            log->Add(stage.name, stage.start_ms,
                     stage.start_ms + stage.duration_ms, stage_parent);
      }
    }
    return run;
  }();
  double t3 = NowMs();
  if (!result.ok()) {
    learned.error = "RunThor failed on " + SiteName(id) + ": " +
                    result.status().ToString();
    return learned;
  }
  {
    SpanScope span(log, "core::TemplateRegistry::Learn", site_span.id());
    learned.registry = core::TemplateRegistry::Learn(pages, *result);
  }
  double t4 = NowMs();
  thor::Status put;
  {
    SpanScope span(log, "serve::TemplateStore::Put", site_span.id());
    put = store->Put(SiteName(id), learned.registry);
  }
  double t5 = NowMs();
  if (!put.ok()) {
    learned.error = "store put failed: " + put.ToString();
    return learned;
  }
  learned.latency_ms = t5 - start;

  // Off the learn path: the serving-side compile and the quality score.
  double c0 = NowMs();
  {
    SpanScope span(log, "core::CompiledTemplates::Compile", site_span.id());
    learned.compiled = core::CompiledTemplates::Compile(learned.registry);
  }
  double c1 = NowMs();
  learned.pagelets = core::EvaluatePagelets(learned.sample, *result);

  if (times != nullptr) {
    times->sites += 1;
    times->probe_ms += t1 - t0;
    times->label_ms += t2 - t1;
    times->thor_ms += t3 - t2;
    for (const thor::TraceSpan& stage : result->report.spans) {
      if (stage.name == "cluster_ranking") {
        times->cluster_ranking_ms += stage.duration_ms;
      } else if (stage.name == "phase2_extraction") {
        times->phase2_ms += stage.duration_ms;
      } else if (stage.name == "remap_results") {
        times->remap_ms += stage.duration_ms;
      }
    }
    times->learn_ms += t4 - t3;
    times->put_ms += t5 - t4;
    times->compile_us += (c1 - c0) * 1000.0;
    times->pages += static_cast<int64_t>(pages.size());
    times->pages_dropped += result->diagnostics.pages_dropped;
    auto raw = store->ReadRaw(SiteName(id));
    if (raw.ok()) {
      times->store_bytes += static_cast<int64_t>(raw->payload.size());
    }
  }
  learned.ok = true;
  return learned;
}

std::vector<std::string> ServePages(const deepweb::DeepWebSite& site,
                                    uint64_t probe_base) {
  deepweb::ProbeOptions probe;
  probe.seed = ProbeSeed(probe_base, site.config().site_id);
  std::vector<std::string> pages;
  for (deepweb::QueryResponse& response : deepweb::ProbeSite(site, probe)) {
    pages.push_back(std::move(response.html));
  }
  return pages;
}

void Interleave(const std::vector<std::vector<std::string>>& pages,
                ServeSet* set) {
  size_t longest = 0;
  for (const auto& site_pages : pages) {
    longest = std::max(longest, site_pages.size());
  }
  for (size_t p = 0; p < longest; ++p) {
    for (size_t s = 0; s < pages.size(); ++s) {
      if (p >= pages[s].size()) continue;
      set->requests.push_back({set->names[s], pages[s][p]});
      set->request_site.push_back(static_cast<int>(s));
    }
  }
}

std::vector<std::vector<Request>> Batches(const std::vector<Request>& requests,
                                          size_t batch) {
  std::vector<std::vector<Request>> batches;
  for (size_t start = 0; start < requests.size(); start += batch) {
    size_t end = std::min(requests.size(), start + batch);
    batches.emplace_back(requests.begin() + static_cast<long>(start),
                         requests.begin() + static_cast<long>(end));
  }
  return batches;
}

serve::ServiceOptions ServiceDefaults(thor::MetricsRegistry* metrics,
                                      int threads) {
  serve::ServiceOptions options;
  options.threads = threads;
  options.metrics = metrics;
  return options;
}

bool BuildServeFixture(int num_sites, uint64_t train_base,
                       uint64_t serve_base,
                       const std::string& dir, SpanLog* log,
                       ServeFixture* out, std::string* error) {
  std::filesystem::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir);
  if (!store.ok()) {
    *error = "store open failed: " + store.status().ToString();
    return false;
  }
  out->store = std::make_unique<serve::TemplateStore>(std::move(*store));
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  fleet_options.seed = kFleetSeed;
  std::vector<deepweb::DeepWebSite> fleet =
      deepweb::GenerateSiteFleet(fleet_options);
  std::vector<std::vector<std::string>> pages;
  for (const deepweb::DeepWebSite& site : fleet) {
    LearnedSite learned =
        LearnSite(site, train_base, out->store.get(), &out->times, log);
    if (!learned.ok) {
      *error = learned.error;
      return false;
    }
    out->set.names.push_back(SiteName(site.config().site_id));
    out->set.compiled.push_back(std::move(learned.compiled));
    pages.push_back(ServePages(site, serve_base));
  }
  Interleave(pages, &out->set);
  return true;
}

std::string RunDir(const Options& options, const std::string& tag) {
  return options.out_dir + "/run-" + std::to_string(getpid()) + "/" + tag;
}

}  // namespace thorbench
