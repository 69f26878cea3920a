#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  const int64_t n = static_cast<int64_t>(samples.size());
  out.samples = n;
  if (n == 0 || !(q > 0) || q > 1) return out;
  // Nearest rank, computed on the integer grid so that q = 0.99, n = 1000
  // selects rank 990 and not 991 through a rounding error.
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[static_cast<size_t>(rank - 1)];
  out.beyond = n - rank;
  out.supported = out.beyond >= kMinSamplesBeyond;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Quantile WindowedPercentile(const std::vector<double>& samples, double q,
                            int windows) {
  Quantile out;
  const size_t n = samples.size();
  out.samples = static_cast<int64_t>(n);
  if (windows < 1 || n < static_cast<size_t>(windows)) return out;
  std::vector<double> per_window;
  out.supported = true;
  out.beyond = static_cast<int64_t>(n);
  for (int w = 0; w < windows; ++w) {
    const size_t lo = n * w / windows, hi = n * (w + 1) / windows;
    const Quantile p = Percentile(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi), q);
    per_window.push_back(p.value);
    out.supported = out.supported && p.supported;
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = Median(per_window);
  return out;
}

bool StepMeetsSlo(const StepOutcome& step, const SloRule& slo) {
  return step.attempted > 0 && step.failed == 0 && step.rtt_p99_ms.supported &&
         step.rtt_p99_ms.value <= slo.rtt_p99_ms &&
         step.lag_growth_ms <= slo.max_lag_growth_ms;
}

int SelectMaxRateStep(const std::vector<StepOutcome>& steps,
                      const SloRule& slo) {
  int best = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!StepMeetsSlo(steps[i], slo)) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
