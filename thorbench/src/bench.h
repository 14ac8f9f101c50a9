#ifndef THORBENCH_SRC_BENCH_H_
#define THORBENCH_SRC_BENCH_H_

// Shared plumbing of the benchmark: options, the result record, the span
// log behind the traced pass, response digests, and process stamps.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/extraction_service.h"
#include "src/util/trace.h"

namespace thorbench {

/// Every workload serves or learns the paper's simulated fleet, the one
/// bench/ uses throughout (deepweb::FleetOptions' default seed).
inline constexpr uint64_t kFleetSeed = 7;

struct Options {
  std::string workload;
  /// Probe seed of the pages a run replays (serving workloads) or learns
  /// from (learn_cold): which probe words hit which sites.
  uint64_t seed = 99;
  /// Probe seed of the sample the serving workloads learn their templates
  /// from before they serve.
  uint64_t train_seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/thorbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. End-to-end metrics come from the
/// untraced measurement; `layers` only from a traced run.
struct Result {
  bool correct = true;
  std::string why_incorrect;  ///< first failed output check
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Workload-specific figures that are not part of every run's metric
  /// set (printed, and written to the run's summary file).
  std::vector<Metric> extra;
  /// Shape facts the held-out seed check reads.
  std::map<std::string, double> shape;

  void Fail(const std::string& why) {
    if (correct) why_incorrect = why;
    correct = false;
  }
  void Add(std::vector<Metric>* list, std::string name, double value,
           std::string unit) {
    list->push_back({std::move(name), value, std::move(unit)});
  }
};

/// Monotonic milliseconds.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPUs this process may run on (what `nproc` prints).
int Nproc();
/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// \brief Thread-safe span recorder for the traced pass. Spans carry the
/// request or site they belong to in their name ("site 12", "batch 7"),
/// nest through explicit parents, and render through util/trace's Chrome
/// trace-event writer.
class SpanLog {
 public:
  explicit SpanLog(double origin_ms) : origin_ms_(origin_ms) {}

  /// Opens a span starting now under `parent` (-1 = root).
  int Open(std::string name, int parent = -1);
  void Close(int id);
  /// Records an already finished span.
  int Add(std::string name, double start_ms, double end_ms, int parent = -1);

  std::vector<thor::TraceSpan> Snapshot() const;

 private:
  double origin_ms_;
  mutable std::mutex mu_;
  std::vector<thor::TraceSpan> spans_;
};

/// RAII span that tolerates a null log (the untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent = -1)
      : log_(log), id_(log ? log->Open(std::move(name), parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// 64-bit FNV-1a, folded over a response stream.
class Digest {
 public:
  void Bytes(std::string_view bytes);
  void Int(int64_t value);
  void Double(double value);
  /// Every field of a service response, object texts included.
  void Response(const thor::serve::ExtractionService::Response& response);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Hit/miss/low-confidence counters of a service metrics sink.
struct ServeCounts {
  int64_t hit = 0;
  int64_t miss = 0;
  int64_t low_confidence = 0;
  bool operator==(const ServeCounts& other) const {
    return hit == other.hit && miss == other.miss &&
           low_confidence == other.low_confidence;
  }
};
ServeCounts ReadServeCounts(const thor::MetricsRegistry& metrics);

/// Linear-interpolated percentile of a fixed-bucket histogram (0 when
/// empty or absent).
double HistogramPercentile(const thor::MetricsSnapshot& snapshot,
                           const std::string& name, double p);

/// `<out_dir>/<workload>-seed<N>.<suffix>`: where a traced run leaves its
/// Chrome trace and per-layer summary.
inline std::string OutPath(const Options& options, const std::string& suffix) {
  return options.out_dir + "/" + options.workload + "-seed" +
         std::to_string(options.seed) + "." + suffix;
}

/// Writes `text` to `path`, creating parent directories. False on error.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace thorbench

#endif  // THORBENCH_SRC_BENCH_H_
