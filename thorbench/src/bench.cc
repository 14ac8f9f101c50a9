#include "thorbench/src/bench.h"

#include <sched.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace thorbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware > 0 ? hardware : 1;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

int SpanLog::Open(std::string name, int parent) {
  double now = NowMs() - origin_ms_;
  std::lock_guard<std::mutex> lock(mu_);
  thor::TraceSpan span;
  span.name = std::move(name);
  span.start_ms = now;
  span.parent = parent;
  span.depth =
      parent >= 0 ? spans_[static_cast<size_t>(parent)].depth + 1 : 0;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id) {
  double now = NowMs() - origin_ms_;
  std::lock_guard<std::mutex> lock(mu_);
  thor::TraceSpan& span = spans_[static_cast<size_t>(id)];
  span.duration_ms = now - span.start_ms;
}

int SpanLog::Add(std::string name, double start_ms, double end_ms,
                 int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  thor::TraceSpan span;
  span.name = std::move(name);
  span.start_ms = start_ms - origin_ms_;
  span.duration_ms = end_ms - start_ms;
  span.parent = parent;
  span.depth =
      parent >= 0 ? spans_[static_cast<size_t>(parent)].depth + 1 : 0;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<thor::TraceSpan> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Digest::Bytes(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  // Length terminator, so ("ab","c") and ("a","bc") differ.
  Int(static_cast<int64_t>(bytes.size()));
}

void Digest::Int(int64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= static_cast<uint64_t>(value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Double(double value) {
  int64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Int(bits);
}

void Digest::Response(
    const thor::serve::ExtractionService::Response& response) {
  Int(static_cast<int64_t>(response.source));
  Bytes(response.pagelet_path);
  Int(static_cast<int64_t>(response.objects.size()));
  for (const std::string& object : response.objects) Bytes(object);
  Double(response.confidence);
  Int(response.generation);
  Bytes(response.error);
}

ServeCounts ReadServeCounts(const thor::MetricsRegistry& metrics) {
  thor::MetricsSnapshot snapshot = metrics.Snapshot();
  auto get = [&](const char* name) -> int64_t {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  ServeCounts counts;
  counts.hit = get("serve.template_hit");
  counts.miss = get("serve.template_miss");
  counts.low_confidence = get("serve.low_confidence");
  return counts;
}

double HistogramPercentile(const thor::MetricsSnapshot& snapshot,
                           const std::string& name, double p) {
  auto it = snapshot.histograms.find(name);
  if (it == snapshot.histograms.end()) return 0.0;
  const thor::HistogramSnapshot& histogram = it->second;
  int64_t total = histogram.total();
  if (total == 0) return 0.0;
  double target = p / 100.0 * static_cast<double>(total);
  double seen = 0.0;
  for (size_t b = 0; b < histogram.counts.size(); ++b) {
    double count = static_cast<double>(histogram.counts[b]);
    if (count > 0 && seen + count >= target) {
      double lo = b == 0 ? 0.0 : histogram.bounds[b - 1];
      // The overflow bucket has no upper bound: report its lower edge.
      if (b >= histogram.bounds.size()) return lo;
      double hi = histogram.bounds[b];
      return lo + (hi - lo) * (target - seen) / count;
    }
    seen += count;
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::error_code error;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), error);
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace thorbench
