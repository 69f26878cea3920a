// Sample statistics of the benchmark: percentile selection under the
// "ten samples beyond" rule, and the ladder-step selection behind
// max_rate_under_slo.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// strictly beyond the selected rank.
inline constexpr int64_t kMinSamplesBeyond = 10;

/// One selected percentile and the sample it came from.
struct Quantile {
  double value = 0;
  int64_t samples = 0;     ///< size of the sample it was selected from
  int64_t beyond = 0;      ///< samples ranked strictly above the selection
  bool supported = false;  ///< beyond >= kMinSamplesBeyond
};

/// Nearest-rank percentile: the ceil(q·n)-th smallest sample (1-based),
/// q in (0, 1]. The input need not be sorted.
Quantile Percentile(std::vector<double> samples, double q);

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Tail of a run that a few disturbed seconds cannot move: the median, over
/// `windows` equal consecutive slices of `samples` (in arrival order), of
/// each slice's q-percentile. Supported iff every slice's percentile is;
/// `samples` and `beyond` report the whole sample and the smallest slice
/// margin.
Quantile WindowedPercentile(const std::vector<double>& samples, double q,
                            int windows);

/// What the open-loop generator observed on one ladder step.
struct StepOutcome {
  double nominal_rate = 0;   ///< arrivals/s the schedule offered
  double achieved_rate = 0;  ///< arrivals completed / step duration
  Quantile rtt_p99_ms;       ///< due-time rank round trip, p99
  int64_t attempted = 0;
  int64_t failed = 0;
  double lag_growth_ms = 0;  ///< see LagGrowthMs in schedule.h
};

/// The service-level objective a ladder step must meet.
struct SloRule {
  double rtt_p99_ms = 0;         ///< rank round trip p99 limit
  double max_lag_growth_ms = 0;  ///< send lag may not grow by more
};

/// True when the step meets the SLO: a supported p99 within the limit,
/// nothing failed, and a send lag that does not grow across the step.
bool StepMeetsSlo(const StepOutcome& step, const SloRule& slo);

/// Walks the ladder in the order given (ascending rates) and returns the
/// index of the last step before the first one that misses the SLO; -1 when
/// the first step already misses.
int SelectMaxRateStep(const std::vector<StepOutcome>& steps,
                      const SloRule& slo);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
