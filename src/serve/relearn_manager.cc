#include "src/serve/relearn_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/core/hot_extractor.h"
#include "src/util/failpoint.h"
#include "src/util/parallel.h"

namespace thor::serve {

namespace {

/// Shadow-extracts `registry` over `sample` with the serving engine;
/// returns the number of pages located with confidence >= kLowConfidence
/// (a miss has confidence 0).
int ScoreSample(core::HotExtractor& extractor,
                const core::TemplateRegistry& registry,
                const std::vector<std::string>& sample) {
  core::CompiledTemplates compiled = core::CompiledTemplates::Compile(registry);
  int hits = 0;
  for (const std::string& html : sample) {
    auto located = extractor.Locate(extractor.Parse(html), compiled);
    if (located.Confidence() >=
        core::TemplateRegistry::Located::kLowConfidence) {
      ++hits;
    }
  }
  return hits;
}

}  // namespace

RelearnManager::RelearnManager(TemplateStore* store,
                               RelearnManagerOptions options,
                               SampleProvider sampler)
    : store_(store),
      options_(std::move(options)),
      sampler_(std::move(sampler)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Instance()) {
  if (options_.workers < 1) options_.workers = 1;
}

RelearnManager::~RelearnManager() { Stop(); }

void RelearnManager::ObservePage(const std::string& site,
                                 std::string_view html) {
  if (options_.canary_sample == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  PageRing& ring = recent_[site];
  if (ring.pages.size() < options_.canary_sample) {
    ring.pages.emplace_back(html);
  } else {
    ring.pages[ring.next] = std::string(html);
    ring.next = (ring.next + 1) % options_.canary_sample;
  }
}

RelearnManager::Enqueued RelearnManager::Enqueue(const std::string& site,
                                                 uint64_t ticket) {
  if (!THOR_FAILPOINT("relearn_mgr.enqueue").ok()) {
    AddCounter(options_.metrics, "serve.relearn_shed");
    return Enqueued::kRejected;
  }
  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return Enqueued::kRejected;
    if (inflight_.count(site) != 0) return Enqueued::kDuplicate;
    if (pending_.size() >= options_.queue_capacity &&
        !pending_.empty()) {
      // Overload: the oldest pending job is the stalest drift evidence —
      // shed it (its ticket leaves the rendezvous, so no batch waits on
      // work that will never run).
      Job& oldest = pending_.front();
      inflight_.erase(oldest.site);
      unfinished_tickets_.erase(unfinished_tickets_.find(oldest.ticket));
      pending_.pop_front();
      AddCounter(options_.metrics, "serve.relearn_shed");
    }
    Job job;
    job.site = site;
    job.ticket = ticket;
    auto ring = recent_.find(site);
    if (ring != recent_.end()) job.sample = ring->second.pages;
    pending_.push_back(std::move(job));
    inflight_.insert(site);
    unfinished_tickets_.insert(ticket);
    SetGauge(options_.metrics, "serve.relearn_queue_depth",
             static_cast<double>(pending_.size()));
    if (active_drainers_ < options_.workers) {
      ++active_drainers_;
      spawn = true;
    }
  }
  if (spawn) ThreadPool::Global()->Submit([this] { DrainLoop(); });
  return Enqueued::kAccepted;
}

void RelearnManager::DrainLoop() {
  for (;;) {
    Job job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty() || stopped_) {
        --active_drainers_;
        cv_.notify_all();
        return;
      }
      job = std::move(pending_.front());
      pending_.pop_front();
      SetGauge(options_.metrics, "serve.relearn_queue_depth",
               static_cast<double>(pending_.size()));
    }
    Completed result = RunJob(std::move(job));
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(result.site);
      unfinished_tickets_.erase(unfinished_tickets_.find(result.ticket));
      done_.push_back(std::move(result));
    }
    cv_.notify_all();
  }
}

RelearnManager::Completed RelearnManager::RunJob(Job job) {
  Completed result;
  result.site = job.site;
  result.ticket = job.ticket;
  double start_ms = clock_->NowMs();
  // PR-5 relearn semantics carry over unchanged: the job runs under its
  // own budget (plus manager stop), and an overrun aborts at the next
  // stage boundary with nothing committed.
  Deadline deadline = Deadline::Stoppable(stop_);
  if (options_.relearn_deadline_ms > 0.0) {
    deadline = Deadline::Sooner(
        deadline, Deadline::After(clock_, options_.relearn_deadline_ms))
                   .WithStop(stop_);
  }
  auto finish = [&] {
    Observe(options_.metrics, "serve.relearn_latency_ms",
            clock_->NowMs() - start_ms);
    return std::move(result);
  };
  if (sampler_ == nullptr || deadline.expired()) {
    if (deadline.expired()) {
      AddCounter(options_.metrics, "serve.deadline_exceeded");
    }
    return finish();
  }
  std::vector<core::Page> pages = sampler_(job.site, job.ticket);
  if (pages.empty()) return finish();
  core::ThorOptions relearn_options;
  relearn_options.deadline = deadline;
  auto analysis = core::RunThor(pages, relearn_options);
  if (!analysis.ok()) {
    if (analysis.status().code() == StatusCode::kDeadlineExceeded) {
      AddCounter(options_.metrics, "serve.deadline_exceeded");
    }
    return finish();
  }
  core::TemplateRegistry registry =
      core::TemplateRegistry::Learn(pages, *analysis);
  if (registry.empty()) return finish();

  // Canary: shadow-extract the fresh generation over the site's recent
  // pages and require it to retain the live generation's quality. The
  // poison failpoint forces the fresh generation to score as unusable —
  // the "deliberately bad canary" chaos hook.
  bool poisoned = !THOR_FAILPOINT("canary.poison").ok();
  bool promote = !poisoned;
  if (promote && !job.sample.empty()) {
    core::HotExtractor extractor;
    int canary_hits = ScoreSample(extractor, registry, job.sample);
    int live_hits = 0;
    auto live = store_->Load(job.site);
    if (live.ok()) {
      live_hits = ScoreSample(extractor, live->registry, job.sample);
    }
    promote = canary_hits >= options_.canary_floor * live_hits - 1e-9;
  }
  if (promote && !THOR_FAILPOINT("canary.promote").ok()) promote = false;
  if (!promote) {
    // Auto-rollback: commit nothing. The superseded generation stays both
    // on disk and in every serving cache, so the bad redesign never
    // reaches a response.
    (void)THOR_FAILPOINT("canary.rollback");
    AddCounter(options_.metrics, "serve.canary.rollbacks");
    result.rolled_back = true;
    return finish();
  }

  // Commit before serving from it; a store write failure degrades to a
  // cache-only generation 0, exactly like the synchronous relearn path.
  Status put = THOR_FAILPOINT("relearn_mgr.commit");
  if (put.ok()) put = store_->Put(job.site, registry);
  if (put.ok()) {
    result.generation = store_->Generation(job.site);
    AddCounter(options_.metrics, "serve.relearns");
  } else {
    AddCounter(options_.metrics, "serve.store_errors");
  }
  AddCounter(options_.metrics, "serve.canary.promotions");
  result.promoted = true;
  result.registry = std::move(registry);
  return finish();
}

std::vector<RelearnManager::Completed> RelearnManager::TakeReady(
    uint64_t bound, const Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopped_ && !unfinished_tickets_.empty() &&
         *unfinished_tickets_.begin() <= bound && !deadline.expired()) {
    // Timed wait so an expiring (or simulated-clock) deadline is noticed
    // without requiring a notification.
    cv_.wait_for(lock, std::chrono::milliseconds(5));
  }
  std::vector<Completed> ready;
  auto split = std::stable_partition(
      done_.begin(), done_.end(),
      [bound](const Completed& c) { return c.ticket > bound; });
  ready.assign(std::make_move_iterator(split),
               std::make_move_iterator(done_.end()));
  done_.erase(split, done_.end());
  std::stable_sort(ready.begin(), ready.end(),
                   [](const Completed& a, const Completed& b) {
                     return a.ticket != b.ticket ? a.ticket < b.ticket
                                                 : a.site < b.site;
                   });
  return ready;
}

void RelearnManager::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    stop_.RequestStop();
    for (const Job& job : pending_) {
      inflight_.erase(job.site);
      unfinished_tickets_.erase(unfinished_tickets_.find(job.ticket));
    }
    pending_.clear();
    SetGauge(options_.metrics, "serve.relearn_queue_depth", 0.0);
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return active_drainers_ == 0; });
}

size_t RelearnManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace thor::serve
