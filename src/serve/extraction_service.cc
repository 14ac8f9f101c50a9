#include "src/serve/extraction_service.h"

#include <algorithm>
#include <utility>

#include "src/util/failpoint.h"
#include "src/util/parallel.h"

namespace thor::serve {

namespace {

/// Drift detector (see SiteStats::drift_ewma): EWMA weight of the newest
/// request, and the lines where a site turns kDrifting and kBroken.
constexpr double kDriftAlpha = 0.1;
constexpr double kDriftWarn = 0.35;
constexpr double kDriftBroken = 0.8;

constexpr double kLowConfidence =
    core::TemplateRegistry::Located::kLowConfidence;

}  // namespace

const char* DriftStateName(DriftState state) {
  switch (state) {
    case DriftState::kHealthy:
      return "healthy";
    case DriftState::kDrifting:
      return "drifting";
    case DriftState::kBroken:
      return "broken";
  }
  return "unknown";
}

const char* ExtractionService::SourceName(Source source) {
  switch (source) {
    case Source::kTemplate:
      return "template";
    case Source::kRelearn:
      return "relearn";
    case Source::kMiss:
      return "miss";
    case Source::kShed:
      return "shed";
    case Source::kDeadline:
      return "deadline";
  }
  return "unknown";
}

ExtractionService::ExtractionService(TemplateStore* store,
                                     ServiceOptions options,
                                     SampleProvider sampler)
    : store_(store),
      options_(std::move(options)),
      sampler_(std::move(sampler)),
      cache_(options_.cache_capacity),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()) {}

ExtractionService::CachedSite ExtractionService::MakeCachedSite(
    const core::TemplateRegistry& registry, int64_t generation) {
  return CachedSite{generation, core::CompiledTemplates::Compile(registry)};
}

ExtractionService::SiteHandle ExtractionService::Resolve(
    const std::string& site) {
  SiteHandle handle = cache_.Get(site);
  if (handle != nullptr) return handle;
  auto loaded = store_->Load(site);
  if (!loaded.ok()) {
    // NotFound is the normal cold path; anything else is stored knowledge
    // going bad under us — degrade to a miss and let the staleness policy
    // relearn, but make the corruption visible.
    if (loaded.status().code() != StatusCode::kNotFound) {
      AddCounter(options_.metrics, "serve.store_errors");
    }
    return nullptr;
  }
  return cache_.Put(site,
                    MakeCachedSite(loaded->registry, loaded->generation));
}

ExtractionService::Response ExtractionService::ExtractAgainst(
    const SiteHandle& site_handle, const Request& request) const {
  Response response;
  if (site_handle == nullptr) return response;  // kMiss, generation 0
  response.generation = site_handle->generation;
  // One extractor per worker thread: its arena, parser, and scratch
  // buffers persist across requests *and* across batches (the parallel
  // pool's threads are long-lived), so the steady state allocates nothing
  // on the request path.
  static thread_local core::HotExtractor extractor;
  auto result = extractor.Extract(request.html, site_handle->compiled);
  if (!result.hit) return response;  // kMiss
  response.source = Source::kTemplate;
  response.confidence = result.located.Confidence();
  response.pagelet_path = std::move(result.pagelet_path);
  response.objects = std::move(result.objects);
  return response;
}

bool ExtractionService::ShouldRelearn(const std::string& site, bool known) {
  if (sampler_ == nullptr && options_.relearn_manager == nullptr) {
    return false;
  }
  const SiteStats& stats = stats_[site];
  if (!known && stats.relearn_attempts == 0) {
    // Unknown site: the first miss is the learn-once moment.
    return true;
  }
  // Background mode only: a site the drift detector has flagged relearns
  // eagerly, after half a window of evidence. The cumulative window test
  // below almost never fires after a long healthy run (window_requests
  // keeps growing, diluting a fresh burst of misses), so without this a
  // mid-stream redesign would take an entire miss-heavy window to notice.
  if (options_.relearn_manager != nullptr &&
      stats.drift != DriftState::kHealthy &&
      stats.window_requests >=
          std::max(1, options_.relearn_min_requests / 2)) {
    return true;
  }
  // Known (or previously unlearnable) site: wait for a full window, then
  // trigger on a high miss rate.
  return stats.window_requests >= options_.relearn_min_requests &&
         stats.window_misses >=
             options_.relearn_miss_rate * stats.window_requests;
}

void ExtractionService::UpdateDrift(SiteStats& stats,
                                    const Response& response) {
  double signal = 0.0;
  if (response.source != Source::kTemplate) {
    signal = 1.0;
  } else if (response.confidence < kLowConfidence) {
    signal = 0.5;
  }
  stats.drift_ewma =
      (1.0 - kDriftAlpha) * stats.drift_ewma + kDriftAlpha * signal;
  DriftState next = DriftState::kHealthy;
  if (stats.drift_ewma >= kDriftBroken) {
    next = DriftState::kBroken;
  } else if (stats.drift_ewma >= kDriftWarn) {
    next = DriftState::kDrifting;
  }
  if (next == stats.drift) return;
  drifting_sites_ += (next == DriftState::kDrifting ? 1 : 0) -
                     (stats.drift == DriftState::kDrifting ? 1 : 0);
  broken_sites_ += (next == DriftState::kBroken ? 1 : 0) -
                   (stats.drift == DriftState::kBroken ? 1 : 0);
  stats.drift = next;
  AddCounter(options_.metrics, "serve.drift.events");
  SetGauge(options_.metrics, "serve.drift.drifting_sites",
           static_cast<double>(drifting_sites_));
  SetGauge(options_.metrics, "serve.drift.broken_sites",
           static_cast<double>(broken_sites_));
}

ExtractionService::SiteHandle ExtractionService::Relearn(
    const std::string& site, const Deadline& batch_deadline) {
  SiteStats& stats = stats_[site];
  ++stats.relearn_attempts;
  stats.window_requests = 0;
  stats.window_misses = 0;
  AddCounter(options_.metrics, "serve.relearn_attempts");
  if (!THOR_FAILPOINT("serve.relearn.begin").ok()) return nullptr;
  // The relearn runs under the sooner of its own budget and whatever is
  // left of the batch deadline: a relearn must never outlive the request
  // that triggered it.
  Deadline deadline = batch_deadline;
  if (options_.relearn_deadline_ms > 0.0) {
    deadline = Deadline::Sooner(
        deadline, Deadline::After(clock_, options_.relearn_deadline_ms));
  }
  if (deadline.expired()) {
    AddCounter(options_.metrics, "serve.deadline_exceeded");
    return nullptr;
  }
  std::vector<core::Page> pages = sampler_(site);
  if (pages.empty()) return nullptr;
  core::ThorOptions relearn_options;
  relearn_options.deadline = deadline;
  auto result = core::RunThor(pages, relearn_options);
  if (!result.ok()) {
    // A deadline-aborted relearn commits nothing: no Put, no generation
    // bump, `serve.relearns` untouched — the store cannot be poisoned by
    // a half-analyzed sample.
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      AddCounter(options_.metrics, "serve.deadline_exceeded");
    }
    return nullptr;
  }
  core::TemplateRegistry registry =
      core::TemplateRegistry::Learn(pages, *result);
  if (registry.empty()) return nullptr;
  // Commit the new generation before serving from it; a store write
  // failure degrades to serving the relearned registry cache-only, with
  // generation 0 marking the entry as uncommitted (a committed older
  // generation on disk does not describe this registry).
  Status put = THOR_FAILPOINT("serve.relearn.commit");
  if (put.ok()) put = store_->Put(site, registry);
  int64_t generation = 0;
  if (put.ok()) {
    generation = store_->Generation(site);
    ++stats.relearns;
    AddCounter(options_.metrics, "serve.relearns");
  } else {
    AddCounter(options_.metrics, "serve.store_errors");
  }
  return cache_.Put(site, MakeCachedSite(registry, generation));
}

ExtractionService::Response ExtractionService::Extract(
    const Request& request) {
  return ExtractBatch({request})[0];
}

std::vector<ExtractionService::Response> ExtractionService::ExtractBatch(
    const std::vector<Request>& requests, const Deadline& deadline) {
  // Pass 0: ticketed relearn rendezvous. Batch T adopts every background
  // relearn enqueued at batch <= T - 1 before it resolves anything, which
  // pins the batch a fresh generation first serves from to a position in
  // the request stream — identical at every thread count. Runs without
  // mu_ held: workers finishing jobs only need the manager's own lock.
  uint64_t ticket = batch_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.relearn_manager != nullptr) {
    auto ready = options_.relearn_manager->TakeReady(ticket - 1, deadline);
    if (!ready.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& finished : ready) {
        if (!finished.promoted) continue;
        if (finished.generation > 0) {
          ++stats_[finished.site].relearns;
        }
        cache_.Put(finished.site,
                   MakeCachedSite(finished.registry, finished.generation));
      }
    }
  }

  // Pass 1 (serial): resolve every distinct site in first-appearance
  // order. Store reads happen here, outside the parallel region. A
  // deadline that fires mid-resolve leaves the remaining sites
  // unresolved; their requests degrade to kDeadline responses below. A
  // boundary-failpoint error degrades the whole batch to shed responses.
  Status boundary = THOR_FAILPOINT("serve.batch.resolve");
  std::map<std::string, SiteHandle> resolved;
  if (boundary.ok()) {
    for (const Request& request : requests) {
      if (deadline.expired()) break;
      if (!IsValidSiteName(request.site)) continue;
      if (resolved.find(request.site) == resolved.end()) {
        resolved[request.site] = Resolve(request.site);
      }
    }
    boundary = THOR_FAILPOINT("serve.batch.extract");
  }

  // Pass 2 (parallel, pure): extract each request against its site's
  // resolved registry snapshot. Results are index-addressed. The deadline
  // is re-checked per request: once it fires, remaining requests cost one
  // branch each instead of a parse + locate.
  auto responses = ParallelMap(
      requests.size(),
      [&](size_t i) {
        const Request& request = requests[i];
        Response response;
        if (!boundary.ok()) {
          response.source = Source::kShed;
          response.error = boundary.message();
          return response;
        }
        if (!IsValidSiteName(request.site)) {
          response.error = "invalid site name";
          return response;
        }
        auto it = resolved.find(request.site);
        if (it == resolved.end() || deadline.expired()) {
          response.source = Source::kDeadline;
          response.error = "deadline exceeded";
          return response;
        }
        double start_ms = clock_->NowMs();
        response = ExtractAgainst(it->second, request);
        Observe(options_.metrics, "serve.latency_ms",
                clock_->NowMs() - start_ms);
        return response;
      },
      options_.threads);

  // Pass 3 (serial, index order): accounting and staleness decisions.
  // Because relearns only happen here, and each one deterministically
  // re-serves the triggering request and every later request of that
  // site, the response stream is identical at every thread count. The
  // account failpoint supports delay/crash chaos at the last boundary; an
  // error action here is ignored (the work is already done).
  (void)THOR_FAILPOINT("serve.batch.account");
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SiteHandle> regenerated;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    Response& response = responses[i];
    if (response.source == Source::kDeadline) {
      AddCounter(options_.metrics, "serve.deadline_exceeded");
      continue;
    }
    if (response.source == Source::kShed) {
      AddCounter(options_.metrics, "serve.shed");
      continue;
    }
    if (!response.error.empty()) continue;
    auto regen = regenerated.find(request.site);
    if (regen != regenerated.end()) {
      // The site was relearned earlier in this batch; serve this request
      // from the fresh generation instead of the stale snapshot.
      double start_ms = clock_->NowMs();
      response = ExtractAgainst(regen->second, request);
      Observe(options_.metrics, "serve.latency_ms",
              clock_->NowMs() - start_ms);
    }
    SiteStats& stats = stats_[request.site];
    ++stats.requests;
    ++stats.window_requests;
    // Feed the drift detector before the relearn decision so the present
    // miss is already part of the evidence, and snapshot the page into
    // the canary shadow ring before any enqueue can sample it.
    UpdateDrift(stats, response);
    if (options_.relearn_manager != nullptr) {
      options_.relearn_manager->ObservePage(request.site, request.html);
    }
    if (response.source == Source::kTemplate) {
      ++stats.hits;
      AddCounter(options_.metrics, "serve.template_hit");
      if (response.confidence < kLowConfidence) {
        ++stats.low_confidence;
        AddCounter(options_.metrics, "serve.low_confidence");
      }
      continue;
    }
    ++stats.misses;
    ++stats.window_misses;
    AddCounter(options_.metrics, "serve.template_miss");
    bool known = response.generation > 0;
    if (!ShouldRelearn(request.site, known)) continue;
    // A deadline that fired between extraction and accounting must not
    // start a relearn: the miss stands, the window stays reset-free, and
    // the batch returns instead of sinking into a full pipeline run.
    if (deadline.expired()) {
      AddCounter(options_.metrics, "serve.deadline_exceeded");
      continue;
    }
    if (options_.relearn_manager != nullptr) {
      // Background mode: the serving thread only enqueues. The miss
      // stands in this batch's response stream; the relearned generation
      // (if its canary wins) is adopted at a later batch's rendezvous.
      auto enqueued =
          options_.relearn_manager->Enqueue(request.site, ticket);
      if (enqueued == RelearnManager::Enqueued::kAccepted) {
        ++stats.relearn_attempts;
        stats.window_requests = 0;
        stats.window_misses = 0;
        AddCounter(options_.metrics, "serve.relearn_attempts");
      }
      continue;
    }
    // Synchronous fallback: the triggering request's batch eats the full
    // pipeline run — a stall the background mode exists to eliminate.
    AddCounter(options_.metrics, "serve.relearn_stalls");
    SiteHandle fresh = Relearn(request.site, deadline);
    if (fresh == nullptr) continue;
    regenerated[request.site] = fresh;
    Response reserved = ExtractAgainst(fresh, request);
    // Only a request the fresh registry actually serves is a "relearn"
    // response; a miss against the new generation stays a miss.
    if (reserved.source == Source::kTemplate) {
      reserved.source = Source::kRelearn;
    }
    response = std::move(reserved);
  }
  return responses;
}

ExtractionService::SiteStats ExtractionService::StatsFor(
    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stats_.find(site);
  return it == stats_.end() ? SiteStats{} : it->second;
}

std::map<std::string, ExtractionService::SiteStats>
ExtractionService::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ExtractionService::Invalidate(const std::string& site) {
  cache_.Erase(site);
}

}  // namespace thor::serve
