// Open-loop arrival schedule: the aggregate inter-arrival gaps of a
// reference arrival trace (the calibrated synthetic CrowdSpring trace),
// time-scaled to step through a ladder of fixed mean rates. The whole
// schedule (due times and the per-arrival input seeds from which the
// observations are built) is generated from the workload seed before any
// timing starts; the load generator then only replays it.
#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct LadderStep {
  double rate_per_s = 0;  ///< mean offered rate over the step
  double seconds = 0;     ///< step duration
};

struct ScheduledArrival {
  double due_s = 0;         ///< offset from the start of the timed phase
  int step = 0;             ///< ladder step index
  uint64_t input_seed = 0;  ///< seeds this arrival's observation/feedback
};

/// Inter-arrival gaps of event times recorded in whole units (the synthetic
/// trace's minutes). Each time is first spread uniformly over its unit,
/// from `seed`, so that events recorded in the same unit do not become
/// simultaneous arrivals. Returns times.size() − 1 gaps, each ≥ 0.
std::vector<double> GapsOfWholeUnitTimes(const std::vector<int64_t>& times,
                                         uint64_t seed);

/// Coefficient of variation (std-dev / mean) of the gaps: 1 for a Poisson
/// process, above 1 when arrivals cluster.
double GapCv(const std::vector<double>& gaps);

/// Replays `gaps` (any time unit, positive mean) in order from a
/// seed-chosen offset, wrapping around, time-scaled within each ladder step
/// so that the step's mean rate is its `rate_per_s`: a gap of g units lasts
/// g / (mean gap × rate) seconds, and a gap that crosses a step boundary is
/// finished at the next step's scale. Deterministic in (`ladder`, `gaps`,
/// `seed`); due times are non-decreasing and step boundaries fall at the
/// cumulative step durations.
std::vector<ScheduledArrival> MakeOpenLoopSchedule(
    const std::vector<LadderStep>& ladder, const std::vector<double>& gaps,
    uint64_t seed);

/// Number of arrivals sent more than `tolerance_s` after they were due.
/// `due_s` and `sent_s` are parallel arrays.
int64_t CountLate(const std::vector<double>& due_s,
                  const std::vector<double>& sent_s, double tolerance_s);

/// Growth of the generator's send lag across a step: the median lag
/// (sent − due) over the last quarter of the arrivals minus the median over
/// the first quarter, in milliseconds. A backlog that builds during the
/// step shows as a positive growth; 0 for fewer than 8 arrivals.
double LagGrowthMs(const std::vector<double>& due_s,
                   const std::vector<double>& sent_s);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
