#ifndef THOR_SERVE_EXTRACTION_SERVICE_H_
#define THOR_SERVE_EXTRACTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/hot_extractor.h"
#include "src/core/page.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/serve/relearn_manager.h"
#include "src/serve/template_store.h"
#include "src/util/clock.h"
#include "src/util/deadline.h"
#include "src/util/lru_cache.h"
#include "src/util/metrics.h"

namespace thor::serve {

/// Per-site template-health classification derived from the serving
/// signal (see SiteStats::drift_ewma). Healthy sites serve as usual;
/// drifting/broken sites relearn eagerly in the background.
enum class DriftState { kHealthy = 0, kDrifting = 1, kBroken = 2 };
const char* DriftStateName(DriftState state);

/// Tuning knobs for the multi-site extraction service.
struct ServiceOptions {
  /// Sites whose loaded registries stay resident (LRU-evicted beyond it).
  size_t cache_capacity = 64;
  /// Staleness policy: once a site has served at least this many requests
  /// since its last (re)learn, and its miss rate over that window is at
  /// least `relearn_miss_rate`, the next miss schedules a full
  /// Probe→Cluster→Discover relearn. The window resets after every relearn
  /// attempt, so a site that stays unlearnable degrades to plain misses
  /// instead of relearn-thrashing.
  int relearn_min_requests = 20;
  double relearn_miss_rate = 0.5;
  /// Upper bound on one relearn's full pipeline run, in milliseconds on
  /// `clock` (0 = unbounded). A relearn that overruns aborts with a typed
  /// kDeadlineExceeded — no generation is committed, `serve.relearns` and
  /// the store stay untouched — and the triggering request degrades to a
  /// plain miss. Intersected with the batch deadline when both are set.
  double relearn_deadline_ms = 0.0;
  /// Threads for the ExtractBatch fan-out (0 = process default, 1 =
  /// serial). Responses are index-addressed, so output is identical at
  /// every thread count.
  int threads = 0;
  /// Optional sinks: serve.* counters and the serve.latency_ms histogram.
  MetricsRegistry* metrics = nullptr;
  /// Time source for the latency histogram (null = wall clock). Tests use
  /// a SimulatedClock to keep snapshots deterministic.
  const Clock* clock = nullptr;
  /// Background relearn mode: when set (must outlive the service), the
  /// request path never runs the pipeline inline — relearn decisions only
  /// *enqueue* jobs on the manager, misses stand in the emitting batch,
  /// and promoted generations are adopted at the ticketed rendezvous at
  /// the start of the next batch: batch T blocks until all jobs enqueued
  /// at batches <= T - 1 are finished, so a generation relearned during
  /// batch N serves exactly from batch N+1 at every thread count. Null
  /// keeps the synchronous behavior (each inline relearn then counts one
  /// `serve.relearn_stalls`).
  RelearnManager* relearn_manager = nullptr;
};

/// \brief Long-lived multi-site extraction front end over a TemplateStore.
///
/// The paper's motivating deep-web search engine cannot rerun two-phase
/// analysis per fetched page; this service serves every request from
/// learned templates (store-backed, LRU-cached) and falls back to the full
/// pipeline only when per-site accounting says the stored knowledge went
/// stale — graceful degradation, never a hard failure.
///
/// Thread-safe: concurrent Extract/ExtractBatch calls share the cache and
/// the per-site accounting under internal locks. Relearns and store writes
/// are serialized.
class ExtractionService {
 public:
  /// Supplies a fresh probed sample for `site` when the service decides to
  /// relearn it. Null/empty return means "cannot sample this site now";
  /// the service then keeps serving (and missing) from what it has.
  using SampleProvider =
      std::function<std::vector<core::Page>(const std::string& site)>;

  /// `store` must outlive the service. `sampler` may be null: the service
  /// then never relearns (misses stay misses).
  ExtractionService(TemplateStore* store, ServiceOptions options = {},
                    SampleProvider sampler = nullptr);

  /// Where a response came from.
  enum class Source {
    kTemplate,  ///< served from a stored/cached template
    kRelearn,   ///< this request triggered a relearn and was re-served
    kMiss,      ///< no template fit (or the site is unknown/unlearnable)
    kShed,      ///< rejected by admission control before extraction
    kDeadline,  ///< dropped because the batch deadline expired first
  };
  static const char* SourceName(Source source);

  struct Request {
    std::string site;
    std::string html;
  };

  struct Response {
    Source source = Source::kMiss;
    /// Root path of the located QA-Pagelet, empty on a miss.
    std::string pagelet_path;
    /// QA-Object texts partitioned out of the pagelet.
    std::vector<std::string> objects;
    /// Match confidence in [0, 1] (see TemplateRegistry::Located).
    double confidence = 0.0;
    /// Store generation that served the request, 0 when none.
    int64_t generation = 0;
    /// Non-empty when the request itself was invalid.
    std::string error;
  };

  Response Extract(const Request& request);

  /// Extracts a whole batch, fanning the per-request work out over
  /// util/parallel. Accounting, relearn decisions, and the response order
  /// are all driven in request-index order, so the output (and every
  /// relearned store generation) is byte-identical at every thread count.
  ///
  /// `deadline` bounds the batch: requests the deadline overtakes degrade
  /// to Source::kDeadline responses (error set, `serve.deadline_exceeded`
  /// counted) instead of occupying the serving thread, and no relearn is
  /// started past the deadline. The default deadline is infinite, which
  /// preserves exact thread-count determinism; an expiring deadline is
  /// deterministic only under a SimulatedClock.
  std::vector<Response> ExtractBatch(const std::vector<Request>& requests,
                                     const Deadline& deadline = {});

  /// Per-site accounting snapshot (for tests and tools).
  struct SiteStats {
    int64_t requests = 0;        ///< lifetime requests
    int64_t hits = 0;            ///< lifetime template hits
    int64_t misses = 0;          ///< lifetime misses
    int64_t low_confidence = 0;  ///< lifetime low-confidence hits
    int64_t relearns = 0;         ///< relearns committed to the store
    int64_t relearn_attempts = 0; ///< relearns tried (failures included)
    int window_requests = 0;      ///< requests since the last relearn window
    int window_misses = 0;
    /// Drift detector: per-request EWMA (alpha 0.1) over the serving
    /// signal (miss = 1, low-confidence hit = 0.5, confident hit = 0) and
    /// the resulting classification: kDrifting from 0.35, kBroken from
    /// 0.8. Five consecutive misses take a healthy site past the warn line.
    double drift_ewma = 0.0;
    DriftState drift = DriftState::kHealthy;
  };
  SiteStats StatsFor(const std::string& site) const;
  /// Snapshot of every site's accounting (for tools' drift tables).
  std::map<std::string, SiteStats> AllStats() const;

  /// Drops `site` from the resident cache so the next request reloads it
  /// from the store — how an externally committed generation (fleet
  /// anti-entropy adoption) becomes visible to the serving path without a
  /// restart. Unknown sites are never negative-cached, so a brand-new
  /// adopted site needs no invalidation at all.
  void Invalidate(const std::string& site);

  TemplateStore* store() { return store_; }

 private:
  /// A site's templates as resident in the cache. The compiled form is
  /// built once (per load/relearn/adoption) and then shared read-only by
  /// every worker thread's HotExtractor.
  struct CachedSite {
    int64_t generation = 0;
    core::CompiledTemplates compiled;
  };
  using SiteHandle = std::shared_ptr<const CachedSite>;

  /// Compiles `registry` into a cache entry.
  static CachedSite MakeCachedSite(const core::TemplateRegistry& registry,
                                   int64_t generation);

  /// Loads `site` through cache → store. Null when the store has nothing
  /// (or the stored bytes are corrupt — degradation, not failure).
  SiteHandle Resolve(const std::string& site);

  /// Pure per-request work: one HotExtractor pass (parse + locate +
  /// partition) against `site`'s compiled templates (null → miss). Safe to
  /// run concurrently.
  Response ExtractAgainst(const SiteHandle& site_handle,
                          const Request& request) const;

  /// Serial-path policy: returns true when `site` should relearn now.
  bool ShouldRelearn(const std::string& site, bool known);
  /// Runs the full pipeline on a fresh sample and commits the new
  /// generation. Returns the new handle, or null when relearn failed
  /// (including a relearn overtaken by `batch_deadline` or the configured
  /// relearn_deadline_ms).
  SiteHandle Relearn(const std::string& site, const Deadline& batch_deadline);

  /// Updates `stats.drift_ewma`/`stats.drift` from one served response and
  /// maintains the serve.drift.* exports. Caller holds mu_.
  void UpdateDrift(SiteStats& stats, const Response& response);

  TemplateStore* store_;
  ServiceOptions options_;
  SampleProvider sampler_;
  LruCache<std::string, CachedSite> cache_;
  const Clock* clock_;

  /// Monotonic batch counter driving the relearn rendezvous (ticket 1 is
  /// the first batch).
  std::atomic<uint64_t> batch_ticket_{0};

  mutable std::mutex mu_;  ///< guards stats_ and relearn serialization
  std::map<std::string, SiteStats> stats_;
  /// Sites currently classified drifting/broken (serve.drift.* gauges).
  int drifting_sites_ = 0;
  int broken_sites_ = 0;
};

}  // namespace thor::serve

#endif  // THOR_SERVE_EXTRACTION_SERVICE_H_
