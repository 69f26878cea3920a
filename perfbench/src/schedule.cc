#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "stats.h"

namespace perfbench {
namespace {

/// Uniform in [0, 1).
double Unit(std::mt19937_64* gen) {
  return static_cast<double>((*gen)() >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<double> GapsOfWholeUnitTimes(const std::vector<int64_t>& times,
                                         uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::vector<double> spread;
  spread.reserve(times.size());
  for (int64_t t : times) {
    spread.push_back(static_cast<double>(t) + Unit(&gen));
  }
  std::sort(spread.begin(), spread.end());
  std::vector<double> gaps;
  for (size_t i = 1; i < spread.size(); ++i) {
    gaps.push_back(spread[i] - spread[i - 1]);
  }
  return gaps;
}

double GapCv(const std::vector<double>& gaps) {
  if (gaps.empty()) return 0;
  double sum = 0, sq = 0;
  for (double g : gaps) {
    sum += g;
    sq += g * g;
  }
  const double mean = sum / gaps.size();
  return mean > 0 ? std::sqrt(std::max(0.0, sq / gaps.size() - mean * mean)) /
                        mean
                  : 0;
}

std::vector<ScheduledArrival> MakeOpenLoopSchedule(
    const std::vector<LadderStep>& ladder, const std::vector<double>& gaps,
    uint64_t seed) {
  std::vector<ScheduledArrival> out;
  double mean_gap = 0;
  for (double g : gaps) mean_gap += g;
  if (gaps.empty() || !(mean_gap > 0)) return out;
  mean_gap /= gaps.size();
  std::mt19937_64 gen(seed);
  size_t next_gap = gen() % gaps.size();
  size_t s = 0;
  double step_end = ladder.empty() ? 0 : ladder[0].seconds;
  double t = 0;
  while (s < ladder.size()) {
    // Wall seconds per trace unit in the current step.
    double unit_s = 1.0 / (mean_gap * ladder[s].rate_per_s);
    double next = t + gaps[next_gap] * unit_s;
    next_gap = (next_gap + 1) % gaps.size();
    while (next >= step_end) {
      const double rest_units = (next - step_end) / unit_s;
      t = step_end;
      if (++s == ladder.size()) break;
      step_end += ladder[s].seconds;
      unit_s = 1.0 / (mean_gap * ladder[s].rate_per_s);
      next = t + rest_units * unit_s;
    }
    if (s == ladder.size()) break;
    t = next;
    ScheduledArrival a;
    a.due_s = t;
    a.step = static_cast<int>(s);
    a.input_seed = gen();
    out.push_back(a);
  }
  return out;
}

int64_t CountLate(const std::vector<double>& due_s,
                  const std::vector<double>& sent_s, double tolerance_s) {
  int64_t late = 0;
  for (size_t i = 0; i < due_s.size() && i < sent_s.size(); ++i) {
    if (sent_s[i] - due_s[i] > tolerance_s) ++late;
  }
  return late;
}

double LagGrowthMs(const std::vector<double>& due_s,
                   const std::vector<double>& sent_s) {
  const size_t n = std::min(due_s.size(), sent_s.size());
  if (n < 8) return 0;
  const size_t quarter = n / 4;
  std::vector<double> first, last;
  for (size_t i = 0; i < quarter; ++i) {
    first.push_back(sent_s[i] - due_s[i]);
    last.push_back(sent_s[n - quarter + i] - due_s[n - quarter + i]);
  }
  return (Median(last) - Median(first)) * 1e3;
}

}  // namespace perfbench
