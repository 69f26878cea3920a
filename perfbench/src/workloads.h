// The three benchmark workloads, their knobs, and what they share: the
// deployed service configuration and the shape-based FLOP model of one
// Q-network forward.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "core/framework.h"
#include "report.h"
#include "schedule.h"
#include "serve/shard.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

// Workload knobs. perfbench/workloads.json records the same values (as
// each workload's "params"), and run.py fails a run whose reported params
// disagree with that record.

/// serve_closed_pool57.
namespace closed {
inline constexpr int kPool = 57;    ///< mean |T_i| of the paper's trace
inline constexpr int kSetups = 5;   ///< set-ups per run; the median is reported
}  // namespace closed

/// serve_open_wire.
namespace wire {
/// Mean offered rates of the ladder steps, arrivals/s, ascending.
inline constexpr double kLadderRates[] = {200, 300, 500};
inline constexpr int kSteps =
    static_cast<int>(sizeof(kLadderRates) / sizeof(kLadderRates[0]));
inline constexpr int kNominalStep = 0;  ///< step whose latencies are gated
inline constexpr SloRule kSlo = {/*rtt_p99_ms=*/25, /*max_lag_growth_ms=*/2};
inline constexpr int kPool = 12;
inline constexpr int kSetups = 5;
inline constexpr int kFetchEvery = 16;  ///< local actor's snapshot refetch
/// Months of the calibrated synthetic trace (plus its init month) whose
/// aggregate arrival gaps shape the schedule.
inline constexpr int kTraceMonths = 2;
}  // namespace wire

/// paper_replay.
namespace replay {
inline constexpr double kScale = 0.05;
inline constexpr int kEvalMonths = 2;
/// Whole replays per untraced run, at least; more until --seconds are
/// spent. Quality must match across rounds of one decision seed.
inline constexpr int kMinRounds = 3;
/// Seed of the synthetic trace itself (tasks, workers, arrival times); the
/// workload seed drives worker decisions and the learner.
inline constexpr uint64_t kTraceSeed = 7;
}  // namespace replay

/// crowdrl_learnerd's default --seed. The serve workloads keep the deployed
/// worker/task population and learner initialization it implies; the
/// workload seed varies only the traffic (which worker arrives with which
/// pool, when, and how they react).
inline constexpr uint64_t kDeployedSeed = 7;

/// Serving-side framework config exactly as crowdrl_learnerd deploys it.
crowdrl::FrameworkConfig DeployedFrameworkConfig();
/// ServiceConfig as crowdrl_learnerd deploys it (defaults + publish cadence).
crowdrl::ServiceConfig DeployedServiceConfig();

/// Multiply-adds ×2 of one SetQNetwork forward over an n×d set-state with
/// hidden width h: rFF1, rFF2, rFF3, two 4-projection attention blocks and
/// the output head. Computed from tensor shapes, not counted.
double QNetForwardFlops(double n, double d, double h);

/// Slices behind rank_rtt_p95_ms (see WindowedPercentile).
inline constexpr int kTailWindows = 5;

/// Nanosecond offset of `t` (NowNs clock) from `t0`, in milliseconds.
inline double MsBetween(int64_t t0, int64_t t) { return (t - t0) / 1e6; }

/// The per-layer quantile helper shared by the serve workloads.
void LayerQuantiles(Report* report, const std::string& prefix,
                    const std::vector<double>& samples,
                    const std::string& unit);

void RunServeClosed(const RunOptions& opts, Tracer* tracer, Report* report);
void RunServeOpenWire(const RunOptions& opts, Tracer* tracer, Report* report);
void RunPaperReplay(const RunOptions& opts, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
