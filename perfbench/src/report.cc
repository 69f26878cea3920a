#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteGroup(FILE* f, const char* key,
                const std::map<std::string, Metric>& group) {
  std::fprintf(f, "  %s: {", JsonString(key).c_str());
  bool first = true;
  for (const auto& [name, m] : group) {
    std::fprintf(f,
                 "%s\n    %s: {\"value\": %s, \"unit\": %s, "
                 "\"samples\": %lld}",
                 first ? "" : ",", JsonString(name).c_str(),
                 JsonNumber(m.value).c_str(), JsonString(m.unit).c_str(),
                 static_cast<long long>(m.samples));
    first = false;
  }
  std::fprintf(f, "\n  }");
}

void PrintGroup(const char* title, const std::map<std::string, Metric>& group) {
  if (group.empty()) return;
  std::printf("  %s\n", title);
  for (const auto& [name, m] : group) {
    if (m.samples == 0) {
      std::printf("    %-44s %14s %-7s (not exercised by this workload)\n",
                  name.c_str(), "n/a", m.unit.c_str());
    } else {
      std::printf("    %-44s %14.6g %-7s n=%lld\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    }
  }
}

}  // namespace

void Report::E2e(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  e2e_[name] = Metric{value, unit, samples};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  layer_[name] = Metric{value, unit, samples};
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  extra_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::Param(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  params_[key] = buf;
}

void Report::Absorb(const Report& other, bool e2e, bool layer, bool extra) {
  if (e2e) e2e_.insert(other.e2e_.begin(), other.e2e_.end());
  if (layer) layer_.insert(other.layer_.begin(), other.layer_.end());
  if (extra) extra_.insert(other.extra_.begin(), other.extra_.end());
  params_.insert(other.params_.begin(), other.params_.end());
  problems_.insert(problems_.end(), other.problems_.begin(),
                   other.problems_.end());
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  if (fingerprint_.empty()) fingerprint_ = other.fingerprint_;
}

void Report::FillMissingLayers(const Report& probe) {
  layer_.insert(probe.layer_.begin(), probe.layer_.end());  // keeps existing
  problems_.insert(problems_.end(), probe.problems_.begin(),
                   probe.problems_.end());
  attempted_ += probe.attempted_;
  failed_ += probe.failed_;
}

void Report::Print(const RunOptions& opts) const {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  PrintGroup("end-to-end (untraced)", e2e_);
  PrintGroup("workload-specific (untraced)", extra_);
  PrintGroup("per-layer (traced)", layer_);
  std::printf("  attempted=%lld failed=%lld failed_frac=%.6g checks=%s\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0,
              problems_.empty() ? "pass" : "FAIL");
}

bool Report::WriteJson(const RunOptions& opts, const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"stamp\": {");
  std::fprintf(f, "\"nproc\": %ld, ", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f, "\"build_type\": %s, ",
               JsonString(PERFBENCH_BUILD_TYPE).c_str());
  std::fprintf(f, "\"avx2\": %d, ", PERFBENCH_AVX2);
  std::fprintf(f, "\"compiler\": %s, ", JsonString(PERFBENCH_COMPILER).c_str());
  std::fprintf(f, "\"workload\": %s, ", JsonString(opts.workload).c_str());
  std::fprintf(f, "\"seed\": %llu, ",
               static_cast<unsigned long long>(opts.seed));
  std::fprintf(f, "\"seconds\": %s, ", JsonNumber(opts.seconds).c_str());
  std::fprintf(f, "\"trace\": %d, ", opts.trace ? 1 : 0);
  std::fprintf(f, "\"load_threads\": %d},\n", opts.load_threads);
  std::fprintf(f, "  \"params\": {");
  bool first = true;
  for (const auto& [k, v] : params_) {
    std::fprintf(f, "%s%s: %s", first ? "" : ", ", JsonString(k).c_str(),
                 JsonString(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"correct\": %s,\n", correct() ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %lld,\n",
               static_cast<long long>(attempted_));
  std::fprintf(f, "  \"failed\": %lld,\n", static_cast<long long>(failed_));
  std::fprintf(f, "  \"problems\": [");
  for (size_t i = 0; i < problems_.size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ",
                 JsonString(problems_[i]).c_str());
  }
  std::fprintf(f, "],\n  \"fingerprint\": %s,\n",
               JsonString(fingerprint_).c_str());
  WriteGroup(f, "end_to_end", e2e_);
  std::fprintf(f, ",\n");
  WriteGroup(f, "workload_specific", extra_);
  std::fprintf(f, ",\n");
  WriteGroup(f, "per_layer", layer_);
  std::fprintf(f, "\n}\n");
  return std::fclose(f) == 0;
}

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.user_cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_cpu_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.voluntary_ctx_switches = ru.ru_nvcsw;
  u.involuntary_ctx_switches = ru.ru_nivcsw;
  return u;
}

HostCpu ReadHostCpu() {
  HostCpu out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu user nice system idle iowait irq softirq steal ...
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (long long x : v) out.total += x;
    out.steal = v[7];
  }
  std::fclose(f);
  return out;
}

void ReportProcDelta(const ProcUsage& before, const ProcUsage& after,
                     Report* report) {
  report->Layer("proc.user_cpu_s", after.user_cpu_s - before.user_cpu_s, "s",
                1);
  report->Layer("proc.sys_cpu_s", after.sys_cpu_s - before.sys_cpu_s, "s", 1);
  report->Layer("proc.voluntary_ctx_switches",
                static_cast<double>(after.voluntary_ctx_switches -
                                    before.voluntary_ctx_switches),
                "count", 1);
  report->Layer("proc.involuntary_ctx_switches",
                static_cast<double>(after.involuntary_ctx_switches -
                                    before.involuntary_ctx_switches),
                "count", 1);
}

void ReportTraceOverhead(const Report& untraced, const Report& traced,
                         Report* out) {
  for (const auto& [name, m] : untraced.e2e()) {
    auto it = traced.e2e().find(name);
    if (it == traced.e2e().end()) continue;
    out->Layer("trace.overhead." + name, it->second.value - m.value, m.unit,
               std::min(m.samples, it->second.samples));
  }
}

bool IsPermutation(const std::vector<int>& ranking, size_t pool_size) {
  if (ranking.size() != pool_size) return false;
  std::vector<char> seen(pool_size, 0);
  for (int i : ranking) {
    if (i < 0 || static_cast<size_t>(i) >= pool_size || seen[i]) return false;
    seen[i] = 1;
  }
  return true;
}

void WriteSpans(const RunOptions& opts, const std::vector<Span>& spans) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  if (!Tracer::WriteChromeTrace(spans, path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
