#ifndef THORBENCH_SRC_INPUTS_H_
#define THORBENCH_SRC_INPUTS_H_

// Workload inputs: the simulated fleet, the learn path one site takes
// (probe -> label -> RunThor -> Learn -> store commit), and the replayed
// request stream of the serving workloads. Every figure here is produced
// by timing calls into the library's public functions from outside.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/template_registry.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "thorbench/src/bench.h"

namespace thorbench {

using Request = thor::serve::ExtractionService::Request;
using Response = thor::serve::ExtractionService::Response;

/// Per-site probe seed, derived exactly as deepweb::BuildCorpus does.
inline uint64_t ProbeSeed(uint64_t base, int site_id) {
  return base + 0x9e37u * static_cast<uint64_t>(site_id);
}

inline std::string SiteName(int id) { return "site" + std::to_string(id); }

/// Accumulated learn-path stage times over the sites learned so far.
struct StageTimes {
  int sites = 0;
  double probe_ms = 0.0;
  double label_ms = 0.0;
  double thor_ms = 0.0;
  double cluster_ranking_ms = 0.0;
  double phase2_ms = 0.0;
  double remap_ms = 0.0;
  double learn_ms = 0.0;
  double compile_us = 0.0;
  double put_ms = 0.0;
  int64_t store_bytes = 0;
  int64_t pages = 0;
  int64_t pages_dropped = 0;
};

/// One site taken through the learn path.
struct LearnedSite {
  bool ok = false;
  std::string error;
  thor::deepweb::SiteSample sample;  ///< labeled probe pages
  thor::core::TemplateRegistry registry;
  thor::core::CompiledTemplates compiled;
  thor::core::PrecisionRecall pagelets;  ///< EvaluatePagelets vs truth
  double latency_ms = 0.0;  ///< probe through store commit
};

/// ProbeSite -> LabelPage -> RunThor -> TemplateRegistry::Learn ->
/// TemplateStore::Put for one site, with the production pipeline options.
/// `times` accumulates stage times; `log` (optional) receives one span
/// tree under `parent` named after the site.
LearnedSite LearnSite(const thor::deepweb::DeepWebSite& site,
                      uint64_t probe_base, thor::serve::TemplateStore* store,
                      StageTimes* times, SpanLog* log, int parent = -1);

/// The stream a serving workload replays.
struct ServeSet {
  std::vector<std::string> names;
  std::vector<thor::core::CompiledTemplates> compiled;
  /// Requests interleaved round-robin across sites.
  std::vector<Request> requests;
  std::vector<int> request_site;
};

/// Probes `site` with the serve seed and returns the raw answer pages.
std::vector<std::string> ServePages(const thor::deepweb::DeepWebSite& site,
                                    uint64_t probe_base);

/// Interleaves per-site page lists round-robin into `set`'s request
/// stream (the access pattern of a multi-site crawler front end).
void Interleave(const std::vector<std::vector<std::string>>& pages,
                ServeSet* set);

/// Splits `requests` into consecutive batches of `batch`.
std::vector<std::vector<Request>> Batches(const std::vector<Request>& requests,
                                          size_t batch);

/// Production serving options, as thord builds them for its defaults.
thor::serve::ServiceOptions ServiceDefaults(thor::MetricsRegistry* metrics,
                                            int threads);

/// thord's default --batch.
inline constexpr size_t kThordBatch = 32;

/// A learned store plus the stream served from it.
struct ServeFixture {
  std::unique_ptr<thor::serve::TemplateStore> store;
  ServeSet set;
  StageTimes times;
};

/// Set-up of the serving workloads: generates the first `num_sites` sites
/// of the fleet, learns each from its `train_base` probes into a fresh
/// store at `dir`, and builds the request stream from the `serve_base`
/// probes. False (with `error`) when any site fails to learn.
bool BuildServeFixture(int num_sites, uint64_t train_base,
                       uint64_t serve_base,
                       const std::string& dir, SpanLog* log,
                       ServeFixture* out, std::string* error);

/// Scratch directory for one run's stores.
std::string RunDir(const Options& options, const std::string& tag);

}  // namespace thorbench

#endif  // THORBENCH_SRC_INPUTS_H_
