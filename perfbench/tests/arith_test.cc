// Self-tests of the benchmark's own arithmetic: percentile selection and the
// samples it reports, windowed tails, due-time accounting under an injected
// stall, the trace-gap arrival schedule, span self time, and max_rate_under_slo step
// selection.
//
//   python3 perfbench/run.py --selftest   (builds, then runs this binary)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "schedule.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

using namespace perfbench;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileTenBeyondRule() {
  // n = 1000: p99 is rank 990, with exactly 10 samples beyond it.
  Quantile p = Percentile(Range(1000), 0.99);
  EXPECT(p.value == 990);
  EXPECT(p.samples == 1000);
  EXPECT(p.beyond == 10);
  EXPECT(p.supported);
  // n = 999: rank ceil(989.01) = 990, only 9 beyond -> not supported.
  p = Percentile(Range(999), 0.99);
  EXPECT(p.value == 990);
  EXPECT(p.samples == 999);
  EXPECT(p.beyond == 9);
  EXPECT(!p.supported);
  // p50 of 20 samples: rank 10, 10 beyond.
  p = Percentile(Range(20), 0.5);
  EXPECT(p.value == 10 && p.supported && p.samples == 20);
  p = Percentile(Range(19), 0.5);
  EXPECT(p.value == 10 && !p.supported);
  // Degenerate inputs report no sample and no support.
  p = Percentile({}, 0.5);
  EXPECT(p.samples == 0 && !p.supported);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
}

void TestWindowedPercentileIgnoresOneDisturbedWindow() {
  // Five windows of 1..200; the third is disturbed (every value x 100).
  std::vector<double> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 200; ++i) samples.push_back(w == 2 ? i * 100.0 : i);
  }
  const Quantile p = WindowedPercentile(samples, 0.95, 5);
  EXPECT(p.value == 190);  // the undisturbed windows' p95
  EXPECT(p.samples == 1000 && p.beyond == 10 && p.supported);
  EXPECT(Percentile(samples, 0.95).value > 1000);  // pooled: moved a lot
  // One window is the plain percentile; a thin slice is not supported.
  EXPECT(WindowedPercentile(samples, 0.95, 1).value ==
         Percentile(samples, 0.95).value);
  EXPECT(!WindowedPercentile(samples, 0.99, 5).supported);
  EXPECT(!WindowedPercentile({1, 2}, 0.5, 5).supported);
}

/// A one-connection generator replaying `due_s` with a fixed service time,
/// unable to send during [stall_at, stall_at + stall): returns send times.
std::vector<double> SimulateGenerator(const std::vector<double>& due_s,
                                      double service_s, double stall_at,
                                      double stall) {
  std::vector<double> sent;
  double free_at = 0;
  for (double due : due_s) {
    double t = std::max(due, free_at);
    if (t >= stall_at && t < stall_at + stall) t = stall_at + stall;
    sent.push_back(t);
    free_at = t + service_s;
  }
  return sent;
}

void TestDueTimeAccountingUnderStall() {
  std::vector<double> due;
  for (int i = 0; i < 1000; ++i) due.push_back(i * 1e-3);  // 1 kHz, 1 s
  const std::vector<double> clean = SimulateGenerator(due, 1e-4, 10, 0);
  EXPECT(CountLate(due, clean, 1e-3) == 0);
  const std::vector<double> stalled = SimulateGenerator(due, 1e-4, 0.2, 0.05);
  const int64_t late = CountLate(due, stalled, 1e-3);
  // The 50 arrivals due inside the stall, plus the few that queue behind
  // them while the backlog drains at 0.1 ms per send.
  EXPECT(late >= 50 && late <= 56);
  // Timing from the due time charges the stall to the arrival it delayed.
  EXPECT(std::fabs((stalled[200] - due[200]) - 0.05) < 1e-9);
  EXPECT(stalled[199] == due[199]);
  // A generator that cannot keep up shows a growing lag; one that can, not.
  EXPECT(LagGrowthMs(due, SimulateGenerator(due, 1.5e-3, 10, 0)) > 100);
  EXPECT(std::fabs(LagGrowthMs(due, clean)) < 1e-9);
}

void TestTraceGapsAndSchedule() {
  // Whole-minute times: same-minute events are spread within their minute,
  // so no gap is negative and the total span is kept to within a minute.
  const std::vector<int64_t> minutes = {0, 0, 0, 3, 3, 10};
  const std::vector<double> g = GapsOfWholeUnitTimes(minutes, 5);
  EXPECT(g.size() == 5);
  double span = 0;
  bool nonnegative = true;
  for (double x : g) {
    span += x;
    nonnegative = nonnegative && x >= 0;
  }
  EXPECT(nonnegative && span > 9 && span < 11);
  EXPECT(g == GapsOfWholeUnitTimes(minutes, 5));
  EXPECT(std::fabs(GapCv({1, 1, 1, 1})) < 1e-12);
  EXPECT(std::fabs(GapCv({0, 2}) - 1) < 1e-12);

  // Clustered reference gaps (mean 2.5 units): bursts of three short gaps,
  // then one long one.
  std::vector<double> gaps;
  for (int i = 0; i < 1000; ++i) {
    for (double x : {0.5, 0.5, 0.5, 8.5}) gaps.push_back(x);
  }
  const std::vector<LadderStep> ladder = {{200, 20}, {800, 20}};
  const auto a = MakeOpenLoopSchedule(ladder, gaps, 7);
  const auto b = MakeOpenLoopSchedule(ladder, gaps, 7);
  const auto c = MakeOpenLoopSchedule(ladder, gaps, 8);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].input_seed == b[i].input_seed;
  }
  EXPECT(same);
  EXPECT(c.size() != a.size() || c[0].due_s != a[0].due_s);
  int64_t per_step[2] = {0, 0};
  bool ordered = true;
  for (size_t i = 0; i < a.size(); ++i) {
    ++per_step[a[i].step];
    if (i > 0 && a[i].due_s < a[i - 1].due_s) ordered = false;
    if (a[i].step == 0 && a[i].due_s >= 20) ordered = false;
    if (a[i].step == 1 && (a[i].due_s < 20 || a[i].due_s >= 40)) {
      ordered = false;
    }
  }
  EXPECT(ordered);
  // Each step keeps its mean rate to within one reference cycle.
  EXPECT(std::fabs(per_step[0] - 4000.0) <= 4);
  EXPECT(std::fabs(per_step[1] - 16000.0) <= 4);
  // The reference's clustering survives the time scaling: at 200/s a short
  // gap is 0.5 / (2.5 × 200) s = 1 ms and a long one 17 ms.
  int64_t short_gaps = 0;
  for (size_t i = 1; i < a.size() && a[i].step == 0; ++i) {
    const double gap = a[i].due_s - a[i - 1].due_s;
    if (std::fabs(gap - 1e-3) < 1e-9) ++short_gaps;
  }
  EXPECT(std::fabs(short_gaps / 3000.0 - 1) < 0.01);
}

void TestSpanSelfTime() {
  std::vector<Span> spans(5);
  spans[0] = {"parent", 1, -1, 0, 0, 100};
  spans[1] = {"child", 1, 0, 0, 10, 30};
  spans[2] = {"child", 1, 0, 0, 20, 50};   // overlaps the first child
  spans[3] = {"child", 1, 0, 0, 90, 120};  // runs past the parent's end
  spans[4] = {"grandchild", 1, 1, 0, 12, 18};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // covered: [10,50) and [90,100)
  EXPECT(self[1] == 20 - 6);         // only direct children count
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 6);

  // Recorded spans nest by thread and re-index their parents on collect.
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 7);
    ScopedSpan inner(&tracer, "inner", 7);
  }
  Tracer off(false);
  { ScopedSpan ignored(&off, "ignored", 1); }
  const std::vector<Span> got = tracer.Collect();
  EXPECT(got.size() == 2);
  EXPECT(off.Collect().empty());
  if (got.size() == 2) {
    EXPECT(got[0].parent == -1 && got[1].parent == 0 && got[1].id == 7);
    const auto agg = AggregateSpans(got);
    const double outer_total = agg.at("outer").total_ms[0];
    const double outer_self = agg.at("outer").self_ms[0];
    const double inner_total = agg.at("inner").total_ms[0];
    EXPECT(std::fabs(outer_self + inner_total - outer_total) < 1e-9);
  }
}

StepOutcome Step(double rate, double p99, int64_t n, int64_t failed,
                 double growth) {
  StepOutcome s;
  s.nominal_rate = rate;
  s.achieved_rate = rate;
  s.attempted = n;
  s.failed = failed;
  s.lag_growth_ms = growth;
  s.rtt_p99_ms.value = p99;
  s.rtt_p99_ms.samples = n;
  s.rtt_p99_ms.beyond = n / 100;
  s.rtt_p99_ms.supported = n / 100 >= kMinSamplesBeyond;
  return s;
}

void TestMaxRateStepSelection() {
  const SloRule slo{10.0, 2.0};
  // The last step before the first miss, even if a later step passes again.
  EXPECT(SelectMaxRateStep(
             {Step(100, 3, 2000, 0, 0), Step(200, 5, 2000, 0, 0),
              Step(400, 12, 2000, 0, 0), Step(800, 4, 2000, 0, 0)},
             slo) == 1);
  EXPECT(SelectMaxRateStep(
             {Step(100, 3, 2000, 0, 0), Step(200, 10, 2000, 0, 0)}, slo) ==
         1);  // the limit is inclusive
  EXPECT(SelectMaxRateStep({Step(100, 11, 2000, 0, 0)}, slo) == -1);
  // A failure, a growing send lag or an unsupported p99 each miss the SLO.
  EXPECT(SelectMaxRateStep({Step(100, 3, 2000, 0, 0), Step(200, 3, 2000, 1, 0)},
                           slo) == 0);
  EXPECT(SelectMaxRateStep({Step(100, 3, 2000, 0, 0), Step(200, 3, 2000, 0, 5)},
                           slo) == 0);
  EXPECT(SelectMaxRateStep({Step(100, 3, 500, 0, 0)}, slo) == -1);
}

}  // namespace

int main() {
  TestPercentileTenBeyondRule();
  TestWindowedPercentileIgnoresOneDisturbedWindow();
  TestDueTimeAccountingUnderStall();
  TestTraceGapsAndSchedule();
  TestSpanSelfTime();
  TestMaxRateStepSelection();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
