#ifndef THORBENCH_SRC_STATS_H_
#define THORBENCH_SRC_STATS_H_

// Pure helpers of the benchmark: percentile and tail selection, the
// open-loop scheduler's due-time accounting, and the rate ladder's limit
// test. Header-only so the helper tests link nothing else.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace thorbench {

/// Nearest-rank percentile of an ascending `sorted` sample: the value at
/// rank ceil(p/100 * n). Returns 0 for an empty sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly after the nearest-rank position of `p`.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 50.0);
}

/// The reported tail of a latency sample: the highest percentile of a
/// fixed ladder that still has at least `min_beyond` samples after it,
/// with the sample counts that justify it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// The percentile ladder the tail is picked from. Higher percentiles are
/// left out on purpose: on shared, virtualised cores, host stalls (a few
/// ms, more than once a second at busy times) land in well over 1% of
/// requests, so p99 swings threefold run to run while p90 moves only when
/// the program does.
inline const std::vector<double>& TailLadder() {
  static const std::vector<double> ladder = {50.0, 90.0};
  return ladder;
}

/// Picks the tail of `values` (any order). With too few samples for even
/// the lowest rung, the lowest rung is reported with its short count.
inline Tail SelectTail(std::vector<double> values, size_t min_beyond = 10,
                       const std::vector<double>& ladder = TailLadder()) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  tail.percentile = ladder.front();
  for (double p : ladder) {
    if (SamplesBeyond(values.size(), p) >= min_beyond) tail.percentile = p;
  }
  tail.value = PercentileSorted(values, tail.percentile);
  tail.beyond = SamplesBeyond(values.size(), tail.percentile);
  return tail;
}

/// Samples per window of a windowed tail: at p90, 25 samples beyond.
/// Short windows make many of them, so a stall phase spoils the figure
/// only when it covers half the run.
inline constexpr size_t kTailWindow = 250;

/// The tail of a long sample in time order, read window by window: the
/// sample is cut into consecutive windows of at least `window` samples,
/// each window's tail is picked by SelectTail, and the reported value is
/// the median of the window tails. A host stall (on shared, virtualised
/// cores) spoils the window it lands in, not the figure; an overload that
/// lasts spoils every window. A sample shorter
/// than two windows is one window.
struct WindowedTail {
  Tail tail;           ///< value = median window tail; samples = all
  size_t windows = 1;
  size_t window_samples = 0;
};

inline WindowedTail SelectWindowedTail(const std::vector<double>& in_order,
                                       size_t window = kTailWindow) {
  WindowedTail out;
  const size_t n = in_order.size();
  out.windows = std::max<size_t>(1, n / std::max<size_t>(1, window));
  out.window_samples = n / out.windows;
  std::vector<double> values;
  for (size_t w = 0; w < out.windows; ++w) {
    size_t begin = w * out.window_samples;
    size_t end = w + 1 == out.windows ? n : begin + out.window_samples;
    Tail tail = SelectTail(std::vector<double>(in_order.begin() + begin,
                                               in_order.begin() + end));
    if (w == 0) out.tail = tail;
    values.push_back(tail.value);
  }
  out.tail.value = Median(values);
  out.tail.samples = n;
  return out;
}

/// \brief Fixed-rate open-loop schedule: request i is due at
/// start + i / rate, whatever happened to earlier requests. Records how
/// late the generator actually sent each request.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, double start_ms)
      : interval_ms_(1000.0 / rate_per_s), start_ms_(start_ms) {}

  double Due(uint64_t i) const {
    return start_ms_ + static_cast<double>(i) * interval_ms_;
  }

  /// Number of requests due at or before `now_ms` (indices [0, n)).
  uint64_t DueBy(double now_ms) const {
    if (now_ms < start_ms_) return 0;
    return static_cast<uint64_t>((now_ms - start_ms_) / interval_ms_) + 1;
  }

  /// Records that request `i` left the generator at `now_ms`; returns its
  /// lateness (never negative: a request is never sent early).
  double RecordSend(uint64_t i, double now_ms) {
    double lag = std::max(0.0, now_ms - Due(i));
    lags_.push_back(lag);
    max_lag_ms_ = std::max(max_lag_ms_, lag);
    return lag;
  }

  double max_lag_ms() const { return max_lag_ms_; }
  /// Windowed lateness tail (see SelectWindowedTail), in send order.
  double LagTail() const { return SelectWindowedTail(lags_).tail.value; }

 private:
  double interval_ms_;
  double start_ms_;
  double max_lag_ms_ = 0.0;
  std::vector<double> lags_;
};

/// Everything one ladder rung measured.
struct RungStats {
  double rate = 0.0;      ///< offered requests per second
  size_t sent = 0;
  size_t ok = 0;          ///< answered, not shed, not failed
  size_t shed = 0;
  size_t failed = 0;      ///< unanswered or malformed
  Tail tail;              ///< windowed tail of latency from due time, ms
  double lag_tail_ms = 0.0;  ///< windowed tail of generator lateness
  /// Mean outstanding requests over the first and second half of the
  /// rung's schedule; a backlog that keeps growing shows as second >> first.
  double backlog_first = 0.0;
  double backlog_second = 0.0;
  double seconds = 0.0;   ///< schedule length
};

/// Limits a rung must meet to count as sustained.
struct LadderLimits {
  double tail_ms = 2.0;        ///< latency limit on the windowed tail
  double max_lag_ms = 1.0;     ///< generator lateness tail beyond which
                               ///< the rung measured the generator
  double backlog_growth = 2.0; ///< second-half / first-half backlog ratio
  double backlog_slack = 64.0; ///< outstanding requests always tolerated
};

enum class RungVerdict {
  kPass,
  kSlow,     ///< tail over the limit
  kBacklog,  ///< outstanding requests kept growing
  kDropped,  ///< some request shed or failed (counts as a miss)
  kInvalid,  ///< the generator fell behind: no rate may be claimed
};

inline const char* VerdictName(RungVerdict verdict) {
  switch (verdict) {
    case RungVerdict::kPass: return "pass";
    case RungVerdict::kSlow: return "slow";
    case RungVerdict::kBacklog: return "backlog";
    case RungVerdict::kDropped: return "dropped";
    case RungVerdict::kInvalid: return "invalid";
  }
  return "?";
}

inline RungVerdict Judge(const RungStats& rung, const LadderLimits& limits) {
  if (rung.lag_tail_ms > limits.max_lag_ms) return RungVerdict::kInvalid;
  if (rung.shed > 0 || rung.failed > 0 || rung.ok < rung.sent) {
    return RungVerdict::kDropped;
  }
  if (rung.backlog_second >
      limits.backlog_growth * rung.backlog_first + limits.backlog_slack) {
    return RungVerdict::kBacklog;
  }
  if (rung.tail.value >= limits.tail_ms) return RungVerdict::kSlow;
  return RungVerdict::kPass;
}

/// Rates of the fixed ladder: `first` * `step`^k up to `last`.
inline std::vector<double> LadderRates(double first, double last,
                                       double step) {
  std::vector<double> rates;
  for (double rate = first; rate <= last * (1.0 + 1e-9); rate *= step) {
    rates.push_back(std::round(rate));
  }
  return rates;
}

/// \brief Walks a fixed ladder coarse-then-fine. From rung `start` it
/// moves in strides of `stride` rungs, up while rungs pass and down while
/// they fail, until it has a passing rung with a failing one above it (or
/// hits an end); then it runs the rungs between the two bottom up and
/// stops at the first that fails. Only ladder rates are ever claimed, and
/// a rung is claimed only when it passed.
class LadderSearch {
 public:
  LadderSearch(std::vector<double> rates, size_t stride, size_t start = 0)
      : rates_(std::move(rates)),
        stride_(std::max<size_t>(1, stride)),
        next_(std::min(start, rates_.empty() ? 0 : rates_.size() - 1)),
        lowest_fail_(rates_.size()) {
    done_ = rates_.empty();
  }

  /// Index of the next rung to run, or -1 when the search is over.
  long Next() const { return done_ ? -1 : static_cast<long>(next_); }

  /// Records the verdict of rung `Next()`.
  void Record(bool passed) {
    if (fine_) {
      if (!passed) {
        done_ = true;
        return;
      }
      best_ = static_cast<long>(next_);
      if (++next_ >= lowest_fail_) done_ = true;
      return;
    }
    if (passed) {
      best_ = static_cast<long>(next_);
      if (lowest_fail_ < rates_.size()) {
        Refine();
      } else if (next_ + stride_ < rates_.size()) {
        next_ += stride_;
      } else if (next_ + 1 < rates_.size()) {
        next_ = rates_.size() - 1;  // the top rung, then stop
      } else {
        done_ = true;
      }
      return;
    }
    lowest_fail_ = next_;
    if (best_ >= 0) {
      Refine();
    } else if (next_ == 0) {
      done_ = true;  // nothing passes
    } else {
      next_ = next_ > stride_ ? next_ - stride_ : 0;
    }
  }

  /// Highest passing ladder rate, 0 when no rung passed.
  double best_rate() const {
    return best_ < 0 ? 0.0 : rates_[static_cast<size_t>(best_)];
  }
  double rate(long index) const { return rates_[static_cast<size_t>(index)]; }

 private:
  /// Runs the rungs strictly between the best pass and the lowest fail.
  void Refine() {
    fine_ = true;
    next_ = static_cast<size_t>(best_) + 1;
    if (next_ >= lowest_fail_) done_ = true;
  }

  std::vector<double> rates_;
  size_t stride_;
  size_t next_;
  size_t lowest_fail_;  ///< lowest failing rung seen (size = none)
  long best_ = -1;
  bool fine_ = false;
  bool done_ = false;
};

}  // namespace thorbench

#endif  // THORBENCH_SRC_STATS_H_
