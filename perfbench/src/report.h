// What one benchmark run found: metrics with units and sample counts, the
// output checks, and the stamp that says where it was measured.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;  ///< observations behind the value; 0 = not applicable
};

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< spans and the uds socket go here
  int load_threads = 1;  ///< min(4, nproc)
};

class Report {
 public:
  /// End-to-end metrics come from untraced measurement only.
  void E2e(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  /// Per-layer metrics come from the traced measurement.
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples);
  /// Workload-specific metrics (and ungated tails): printed and kept in the
  /// result file, never part of the result line.
  void Extra(const std::string& name, double value, const std::string& unit,
             int64_t samples);

  /// A failed output check: the run is not correct.
  void Fail(const std::string& why);
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Param(const std::string& key, const std::string& value) {
    params_[key] = value;
  }
  void Param(const std::string& key, double value);
  /// Determinism fingerprint of the run's outputs (empty when the workload
  /// makes no bit-exactness claim).
  void SetFingerprint(const std::string& f) { fingerprint_ = f; }
  const std::string& fingerprint() const { return fingerprint_; }

  /// Folds another measurement of the same run into this one: its checks,
  /// counts and params always, its metric groups as selected.
  void Absorb(const Report& other, bool e2e, bool layer, bool extra);
  /// Takes the per-layer metrics `probe` measured and this report lacks,
  /// plus the probe's checks and counts.
  void FillMissingLayers(const Report& probe);

  bool correct() const { return problems_.empty() && failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& e2e() const { return e2e_; }

  /// Human-readable table on stdout.
  void Print(const RunOptions& opts) const;
  /// Full result (stamp, params, all metric groups, checks) as JSON.
  bool WriteJson(const RunOptions& opts, const std::string& path) const;

 private:
  std::map<std::string, Metric> e2e_, layer_, extra_;
  std::map<std::string, std::string> params_;
  std::vector<std::string> problems_;
  std::string fingerprint_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Process resource usage (getrusage(RUSAGE_SELF)).
struct ProcUsage {
  double peak_rss_mb = 0;
  double user_cpu_s = 0;
  double sys_cpu_s = 0;
  int64_t voluntary_ctx_switches = 0;
  int64_t involuntary_ctx_switches = 0;
};
ProcUsage ReadProcUsage();
/// Reports the per-layer proc.* metrics for the interval [before, after].
void ReportProcDelta(const ProcUsage& before, const ProcUsage& after,
                     Report* report);

/// Whole-machine CPU time from /proc/stat, in clock ticks: the share the
/// hypervisor stole from this VM's vCPUs shows when the host, not the code,
/// slowed a run down. Zeros where /proc/stat cannot be read.
struct HostCpu {
  int64_t steal = 0;
  int64_t total = 0;
};
HostCpu ReadHostCpu();

/// Records the traced − untraced difference of every end-to-end metric as a
/// per-layer "trace.overhead.<metric>" in the metric's unit.
void ReportTraceOverhead(const Report& untraced, const Report& traced,
                         Report* out);

/// Sanity check shared by every workload: `ranking` is a permutation of
/// 0..pool_size-1.
bool IsPermutation(const std::vector<int>& ranking, size_t pool_size);

/// Writes the Chrome trace of `spans` under the output directory.
void WriteSpans(const RunOptions& opts, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
