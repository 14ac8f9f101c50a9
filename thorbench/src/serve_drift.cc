// serve_drift: writes beside reads. 8 sites redesign on a fixed schedule
// (as in bench_template_drift) while they are served in background-relearn
// mode: store commits, canary promotion, cache invalidation and
// rendezvous adoption interleave with hit-path reads.
//
// How long a pass takes depends on which batches wait at the relearn
// rendezvous, and that swings with the probe words of the stream. So a run
// serves a fixed set of stream variants derived from its seed, each
// checked against its own 1-thread reference, and reports over all of
// them.

#include <atomic>
#include <filesystem>

#include "src/deepweb/site_generator.h"
#include "src/serve/relearn_manager.h"
#include "thorbench/src/inputs.h"
#include "thorbench/src/layers.h"
#include "thorbench/src/stats.h"
#include "thorbench/src/workloads.h"

namespace thorbench {

namespace core = thor::core;
namespace deepweb = thor::deepweb;
namespace serve = thor::serve;

namespace {

constexpr int kSites = 8;
constexpr int kEpochs = 4;
constexpr uint64_t kDriftSeed = 4242;
constexpr double kDriftRate = 0.9;
/// Relearn samples as thord draws them by default: --seed 1234 and
/// --probe-queries 40 dictionary words (plus the 10 nonsense words).
constexpr uint64_t kRelearnProbeSeed = 1234;
constexpr int kRelearnProbeQueries = 40;
/// bench_template_drift's batch. With thord's 32 about half the batches
/// wait at the relearn rendezvous, which puts the median batch on the edge
/// between the two modes; with 8, waits are the tail and the median is
/// the hit path.
constexpr size_t kDriftBatch = 8;

std::vector<deepweb::DeepWebSite> DriftFleet() {
  deepweb::FleetOptions options;
  options.num_sites = kSites;
  options.seed = kFleetSeed;
  options.drift.seed = kDriftSeed;
  options.drift.mutation_rate = kDriftRate;
  return deepweb::GenerateSiteFleet(options);
}

/// The epoch-0 generations every pass starts from.
struct DriftFixture {
  std::vector<std::string> names;
  std::vector<core::TemplateRegistry> registries;
  ServeSet epoch0;  ///< epoch-0 stream of the run seed, for layer probes
  StageTimes times;
};

/// One replayed drift schedule: every epoch's pages, in epoch order.
struct DriftStream {
  ServeSet set;
  size_t segment = 0;  ///< requests per epoch
};

DriftStream BuildStream(const std::vector<std::string>& names,
                        uint64_t serve_seed) {
  DriftStream stream;
  stream.set.names = names;
  auto fleet = DriftFleet();
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    deepweb::SetFleetEpoch(&fleet, epoch);
    std::vector<std::vector<std::string>> pages;
    for (const deepweb::DeepWebSite& site : fleet) {
      pages.push_back(ServePages(site, serve_seed));
    }
    size_t before = stream.set.requests.size();
    Interleave(pages, &stream.set);
    stream.segment = stream.set.requests.size() - before;
  }
  return stream;
}

bool BuildDriftFixture(const Options& options, SpanLog* log,
                       DriftFixture* out, std::string* error) {
  const std::string dir = RunDir(options, "drift-setup");
  std::filesystem::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir);
  if (!store.ok()) {
    *error = store.status().ToString();
    return false;
  }
  std::vector<std::vector<std::string>> pages;
  for (const deepweb::DeepWebSite& site : DriftFleet()) {
    LearnedSite learned =
        LearnSite(site, options.train_seed, &*store, &out->times, log);
    if (!learned.ok) {
      *error = learned.error;
      return false;
    }
    out->names.push_back(SiteName(site.config().site_id));
    out->registries.push_back(std::move(learned.registry));
    out->epoch0.compiled.push_back(std::move(learned.compiled));
    pages.push_back(ServePages(site, options.seed));
  }
  out->epoch0.names = out->names;
  Interleave(pages, &out->epoch0);
  std::filesystem::remove_all(dir);
  return true;
}

/// A fresh store holding the epoch-0 generations.
thor::Result<serve::TemplateStore> SeedStore(const std::string& dir,
                                             const DriftFixture& fixture) {
  std::filesystem::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir);
  if (!store.ok()) return store;
  for (size_t s = 0; s < fixture.registries.size(); ++s) {
    thor::Status put = store->Put(fixture.names[s], fixture.registries[s]);
    if (!put.ok()) return put;
  }
  return store;
}

/// Epoch of the stream when batch `ticket` was served, as thord derives it.
int EpochOfTicket(uint64_t ticket, size_t segment) {
  int epoch = static_cast<int>((ticket - 1) * kDriftBatch / segment);
  return std::min(epoch, kEpochs - 1);
}

struct DriftPass {
  bool ok = false;
  uint64_t digest = 0;
  ServeCounts counts;
  std::vector<double> batch_ms;
  std::vector<double> adoption_ms;  ///< batches where a generation changed
  std::vector<uint8_t> hit;         ///< per request
  double total_ms = 0.0;
  int64_t pages = 0;
  int64_t failed = 0;
  int64_t jobs = 0;
  int64_t promotions = 0;
  int64_t rollbacks = 0;
  double relearn_p50_ms = 0.0;
};

/// Serves `stream` once from a freshly seeded store, relearning in the
/// background with `workers` workers.
DriftPass RunPass(const Options& options, const DriftFixture& fixture,
                  const DriftStream& stream,
                  std::vector<deepweb::DeepWebSite>* sampler_fleet,
                  int threads, int workers, const std::string& tag,
                  SpanLog* log) {
  DriftPass pass;
  const std::string dir = RunDir(options, tag);
  auto store = SeedStore(dir, fixture);
  if (!store.ok()) return pass;

  thor::MetricsRegistry metrics;
  std::atomic<int64_t> jobs{0};
  // Per-site job dedup means at most one worker touches a site's
  // simulator at a time, so SetEpoch needs no lock.
  serve::RelearnManager::SampleProvider sampler =
      [&](const std::string& site, uint64_t ticket) {
        int id = std::stoi(site.substr(4));
        jobs.fetch_add(1);
        int root = log != nullptr ? log->Open("relearn " + site + " ticket " +
                                              std::to_string(ticket))
                                  : -1;
        deepweb::DeepWebSite& member =
            (*sampler_fleet)[static_cast<size_t>(id)];
        member.SetEpoch(EpochOfTicket(ticket, stream.segment));
        deepweb::ProbeOptions probe;
        probe.seed = kRelearnProbeSeed + static_cast<uint64_t>(id);
        probe.num_dictionary_words = kRelearnProbeQueries;
        double t0 = NowMs();
        auto pages = core::ToPages(deepweb::BuildSiteSample(member, probe));
        if (log != nullptr) {
          log->Close(root);
          log->Add("deepweb::BuildSiteSample", t0, NowMs(), root);
        }
        return pages;
      };
  serve::RelearnManagerOptions manager_options;
  manager_options.workers = workers;
  manager_options.metrics = &metrics;
  serve::RelearnManager manager(&*store, manager_options, sampler);
  serve::ServiceOptions service_options = ServiceDefaults(&metrics, threads);
  service_options.relearn_manager = &manager;
  serve::ExtractionService service(&*store, service_options);

  Digest digest;
  std::vector<int64_t> generation(fixture.names.size(), 0);
  const auto batches = Batches(stream.set.requests, kDriftBatch);
  size_t index = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    double t0 = NowMs();
    std::vector<Response> responses = service.ExtractBatch(batches[b]);
    double t1 = NowMs();
    if (log != nullptr) {
      int root = log->Add(tag + " batch " + std::to_string(b), t0, t1);
      log->Add("serve::ExtractionService::ExtractBatch", t0, t1, root);
    }
    pass.batch_ms.push_back(t1 - t0);
    pass.total_ms += t1 - t0;
    bool adopted = false;
    for (const Response& response : responses) {
      digest.Response(response);
      int site = stream.set.request_site[index++];
      pass.hit.push_back(response.source ==
                         serve::ExtractionService::Source::kTemplate);
      if (!response.error.empty()) ++pass.failed;
      int64_t& last = generation[static_cast<size_t>(site)];
      if (response.generation != 0) {
        if (last != 0 && response.generation != last) adopted = true;
        last = response.generation;
      }
    }
    if (adopted) pass.adoption_ms.push_back(t1 - t0);
  }
  manager.Stop();
  pass.ok = true;
  pass.pages = static_cast<int64_t>(index);
  pass.digest = digest.value();
  pass.counts = ReadServeCounts(metrics);
  pass.jobs = jobs.load();
  thor::MetricsSnapshot snapshot = metrics.Snapshot();
  pass.promotions = snapshot.counters["serve.canary.promotions"];
  pass.rollbacks = snapshot.counters["serve.canary.rollbacks"];
  pass.relearn_p50_ms =
      HistogramPercentile(snapshot, "serve.relearn_latency_ms", 50.0);
  std::filesystem::remove_all(dir);
  return pass;
}

/// Per-request hits of `stream` served without any relearning.
std::vector<uint8_t> StaticHits(const Options& options,
                                const DriftFixture& fixture,
                                const DriftStream& stream) {
  std::vector<uint8_t> hits;
  const std::string dir = RunDir(options, "static");
  auto store = SeedStore(dir, fixture);
  if (!store.ok()) return hits;
  serve::ExtractionService service(&*store, ServiceDefaults(nullptr, 1));
  for (const auto& batch : Batches(stream.set.requests, kDriftBatch)) {
    for (const Response& response : service.ExtractBatch(batch)) {
      hits.push_back(response.source ==
                     serve::ExtractionService::Source::kTemplate);
    }
  }
  std::filesystem::remove_all(dir);
  return hits;
}

/// Stream variants every run serves: serve probe seeds seed*1000 + k.
constexpr int kVariants = 2;

/// One stream variant with its 1-thread reference pass.
struct Variant {
  DriftStream stream;
  DriftPass reference;
};

/// Builds the run's kVariants stream variants and serves each once at one
/// thread: the references the measured rounds are checked against. Not
/// timed.
std::vector<Variant> BuildVariants(
    const Options& options, const DriftFixture& fixture,
    std::vector<deepweb::DeepWebSite>* sampler_fleet, int workers,
    Result* result) {
  std::vector<Variant> variants(kVariants);
  for (int k = 0; k < kVariants; ++k) {
    Variant& variant = variants[static_cast<size_t>(k)];
    variant.stream = BuildStream(
        fixture.names, options.seed * 1000 + static_cast<uint64_t>(k));
    variant.reference = RunPass(options, fixture, variant.stream,
                                sampler_fleet, 1, workers, "reference",
                                nullptr);
    if (!variant.reference.ok) {
      result->Fail("serve_drift: store set-up failed");
      return variants;
    }
    result->attempted += variant.reference.pages;
    result->failed += variant.reference.failed;
  }
  return variants;
}

/// Measured rounds of one run, pooled.
struct Pooled {
  std::vector<double> batch_ms, adoption_ms, relearn_ms;
  double total_ms = 0.0;
  int64_t pages = 0, jobs = 0, promotions = 0, rollbacks = 0, hits = 0;
  int64_t served = 0;
  int rounds = 0;
  double items_per_s() const {
    return static_cast<double>(pages) * 1000.0 / std::max(total_ms, 1e-9);
  }
};

/// Serves every variant at nproc threads, in whole rounds until `seconds`
/// run out (at least one), so every run measures the same requests. Each
/// pass's digest and counts must equal its variant's reference.
Pooled MeasureRounds(const Options& options, const DriftFixture& fixture,
                     const std::vector<Variant>& variants,
                     std::vector<deepweb::DeepWebSite>* sampler_fleet,
                     int nproc, int workers, double seconds, SpanLog* log,
                     Result* result) {
  Pooled pooled;
  const double end = NowMs() + seconds * 1000.0;
  do {
    for (size_t k = 0; k < variants.size(); ++k) {
      const Variant& variant = variants[k];
      std::string tag = "round" + std::to_string(pooled.rounds) +
                        ".variant" + std::to_string(k);
      DriftPass pass = RunPass(options, fixture, variant.stream,
                               sampler_fleet, nproc, workers, tag, log);
      if (!pass.ok) {
        result->Fail("serve_drift: store set-up failed");
        return pooled;
      }
      if (pass.digest != variant.reference.digest) {
        result->Fail("serve_drift variant " + std::to_string(k) +
                     ": response digest at nproc threads differs from the "
                     "1-thread reference");
      }
      if (!(pass.counts == variant.reference.counts)) {
        result->Fail("serve_drift variant " + std::to_string(k) +
                     ": hit/miss counts differ from the 1-thread reference");
      }
      pooled.batch_ms.insert(pooled.batch_ms.end(), pass.batch_ms.begin(),
                             pass.batch_ms.end());
      pooled.adoption_ms.insert(pooled.adoption_ms.end(),
                                pass.adoption_ms.begin(),
                                pass.adoption_ms.end());
      pooled.relearn_ms.push_back(pass.relearn_p50_ms);
      pooled.total_ms += pass.total_ms;
      pooled.pages += pass.pages;
      pooled.jobs += pass.jobs;
      pooled.promotions += pass.promotions;
      pooled.rollbacks += pass.rollbacks;
      pooled.hits += pass.counts.hit;
      pooled.served += pass.counts.hit + pass.counts.miss;
      result->attempted += pass.pages;
      result->failed += pass.failed;
    }
    ++pooled.rounds;
  } while (NowMs() < end);
  return pooled;
}

/// Appends the relearn_manager figures of measured rounds to `out->extra`.
void AddRelearnFigures(const Pooled& pooled, double batch_p50, Result* out) {
  const double n_passes =
      static_cast<double>(pooled.rounds) * static_cast<double>(kVariants);
  out->Add(&out->extra, "relearn.jobs", pooled.jobs / n_passes, "count/pass");
  out->Add(&out->extra, "relearn.latency_ms_p50",
           Median(pooled.relearn_ms), "ms");
  out->Add(&out->extra, "relearn.canary_promotions",
           pooled.promotions / n_passes, "count/pass");
  out->Add(&out->extra, "relearn.canary_rollbacks",
           pooled.rollbacks / n_passes, "count/pass");
  out->Add(&out->extra, "relearn.adoption_stall_ms",
           pooled.adoption_ms.empty()
               ? 0.0
               : Median(pooled.adoption_ms) - batch_p50,
           "ms");
}

}  // namespace

Result RunServeDrift(const Options& options) {
  Result result;
  const int nproc = Nproc();
  const int workers = std::min(nproc, kSites);
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>(NowMs());

  DriftFixture fixture;
  std::string error;
  const double setup_start = NowMs();
  std::vector<deepweb::DeepWebSite> sampler_fleet = DriftFleet();
  if (!BuildDriftFixture(options, log.get(), &fixture, &error)) {
    result.Fail("set-up failed: " + error);
    return result;
  }
  const double setup_s = (NowMs() - setup_start) / 1000.0;

  // A traced run spends half its time untraced, for the overhead ratio.
  const double measure_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<Variant> variants =
      BuildVariants(options, fixture, &sampler_fleet, workers, &result);
  if (!result.correct) return result;
  Pooled pooled = MeasureRounds(options, fixture, variants, &sampler_fleet,
                                nproc, workers, measure_s, nullptr, &result);
  if (!result.correct) return result;
  const DriftPass& reference = variants.front().reference;
  const DriftStream& stream = variants.front().stream;

  const double items_per_s = pooled.items_per_s();
  const double batch_p50 = Median(pooled.batch_ms);
  Tail tail = SelectWindowedTail(pooled.batch_ms).tail;
  result.Add(&result.end_to_end, "items_per_s", items_per_s, "1/s");
  result.Add(&result.end_to_end, "latency_p50_ms", batch_p50, "ms");
  result.Add(&result.end_to_end, "latency_tail_ms", tail.value, "ms");
  result.Add(&result.end_to_end, "setup_s", setup_s, "s");
  result.Add(&result.extra, "latency_tail_percentile", tail.percentile, "p");
  result.Add(&result.extra, "latency_tail_samples",
             static_cast<double>(tail.samples), "count");
  result.Add(&result.extra, "stream_variants", kVariants, "count");
  result.Add(&result.extra, "rounds", pooled.rounds, "count");
  result.Add(&result.extra, "template_hit_ratio",
             static_cast<double>(pooled.hits) /
                 static_cast<double>(std::max<int64_t>(1, pooled.served)),
             "ratio");
  result.Add(&result.extra, "fail_ratio",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<int64_t>(1, result.attempted)),
             "ratio");
  AddRelearnFigures(pooled, batch_p50, &result);
  result.shape["items_per_s"] = items_per_s;
  // Recovery: per epoch, the hit ratio with background relearn against a
  // static pass that keeps serving the epoch-0 generation. After each
  // redesign the static line stays down; the relearning line recovers.
  std::vector<uint8_t> static_hits = StaticHits(options, fixture, stream);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    size_t base = static_cast<size_t>(epoch) * stream.segment;
    double relearned = 0.0, kept = 0.0;
    for (size_t i = base; i < base + stream.segment; ++i) {
      relearned += reference.hit[i];
      kept += static_hits[i];
    }
    std::string name = "epoch" + std::to_string(epoch);
    result.shape[name + "_hit_relearn"] = relearned / stream.segment;
    result.shape[name + "_hit_static"] = kept / stream.segment;
  }

  if (options.trace) {
    Pooled traced =
        MeasureRounds(options, fixture, variants, &sampler_fleet, nproc,
                      workers, options.seconds / 2, log.get(), &result);
    auto store = SeedStore(RunDir(options, "drift-layers"), fixture);
    if (!store.ok()) {
      result.Fail("layer store set-up failed");
      return result;
    }
    MeasureServingLayers(fixture.epoch0, &*store, nproc, log.get(), &result);
    AddLearnLayers(fixture.times, &result);
    AddServeCounts(reference.counts, &result);
    result.Add(&result.layers, "trace.overhead_ratio",
               traced.items_per_s() / std::max(items_per_s, 1e-9), "ratio");
    WriteFile(OutPath(options, "trace.json"),
              thor::ChromeTraceJson(log->Snapshot()));
  }
  result.Add(&result.end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  std::filesystem::remove_all(RunDir(options, ""));
  return result;
}

void MeasureRelearnLayers(const Options& options, SpanLog* log,
                          Result* out) {
  const int workers = std::min(Nproc(), kSites);
  // Counts of its own: the probe's requests are not the calling
  // workload's items.
  Result probe;
  DriftFixture fixture;
  std::string error;
  std::vector<deepweb::DeepWebSite> sampler_fleet = DriftFleet();
  if (!BuildDriftFixture(options, nullptr, &fixture, &error)) {
    out->Fail("relearn probe set-up failed: " + error);
    return;
  }
  const std::vector<Variant> variants =
      BuildVariants(options, fixture, &sampler_fleet, workers, &probe);
  Pooled pooled;
  if (probe.correct) {
    pooled = MeasureRounds(options, fixture, variants, &sampler_fleet,
                           Nproc(), workers, 0.0, log, &probe);
  }
  if (!probe.correct) {
    out->Fail(probe.why_incorrect);
    return;
  }
  AddRelearnFigures(pooled, Median(pooled.batch_ms), out);
}

}  // namespace thorbench
