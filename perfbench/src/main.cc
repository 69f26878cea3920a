// perfbench_driver: runs one benchmark workload and writes its result.
//
//   perfbench_driver --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                    --out=<result.json> --out_dir=<dir>
//
// With --trace=0 it measures the end-to-end metrics with tracing off. With
// --trace=1 it makes an untraced and a traced measurement of the same
// inputs: per-layer metrics come from the traced one, and the difference
// between the two is reported as the tracing overhead. perfbench/run.py
// builds and runs this binary. The workload knobs are in workloads.h.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"serve_closed_pool57",
                                      "serve_open_wire", "paper_replay"};
/// Measurement time of a per-layer probe (paper_replay runs one round).
constexpr double kProbeSeconds = 5;

void Run(const RunOptions& opts, Tracer* tracer, Report* report) {
  if (opts.workload == "serve_closed_pool57") {
    RunServeClosed(opts, tracer, report);
  } else if (opts.workload == "serve_open_wire") {
    RunServeOpenWire(opts, tracer, report);
  } else {
    RunPaperReplay(opts, tracer, report);
  }
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench_driver: bad argument %s\n", argv[i]);
      return 2;
    }
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "out",
                        "out_dir"}) {
    if (args.count(k) == 0) {
      std::fprintf(stderr, "perfbench_driver: missing --%s\n", k);
      return 2;
    }
  }
  RunOptions opts;
  opts.workload = args["workload"];
  opts.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opts.seconds = std::atof(args["seconds"].c_str());
  opts.trace = args["trace"] != "0";
  opts.out_dir = args["out_dir"];
  opts.load_threads = static_cast<int>(
      std::min<long>(4, std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN))));
  const std::string out = args["out"];
  bool known = false;
  for (const char* w : kWorkloads) known = known || opts.workload == w;
  if (!known || !(opts.seconds > 0)) {
    std::fprintf(stderr, "perfbench_driver: bad --workload or --seconds\n");
    return 2;
  }

  Report report;
  const HostCpu host_before = ReadHostCpu();
  if (!opts.trace) {
    Tracer off(false);
    Run(opts, &off, &report);
  } else {
    // One untraced and one traced measurement of the same inputs; the
    // repeat-determinism check across rounds lives in the untraced runs.
    // paper_replay measures exactly one round each, so traced and untraced
    // quality can be compared bit for bit.
    RunOptions measured = opts;
    if (opts.workload == "paper_replay") measured.seconds = 0;
    Report untraced, traced;
    Tracer off(false), on(true);
    Run(measured, &off, &untraced);
    Run(measured, &on, &traced);
    report.Absorb(untraced, /*e2e=*/true, /*layer=*/false, /*extra=*/true);
    report.Absorb(traced, /*e2e=*/false, /*layer=*/true, /*extra=*/false);
    ReportTraceOverhead(untraced, traced, &report);
    if (untraced.fingerprint() != traced.fingerprint()) {
      report.Fail("outputs differ between the traced and untraced runs");
    }
    WriteSpans(opts, on.Collect());
    // The layers this workload bypasses are measured by short traced probes
    // of the other workloads, so every per-layer metric is a measurement.
    std::string probes;
    for (const char* other : kWorkloads) {
      if (opts.workload == other) continue;
      RunOptions po = opts;
      po.workload = other;
      po.seconds = po.workload == "paper_replay" ? 0 : kProbeSeconds;
      Report probe;
      Tracer probe_tracer(true);
      Run(po, &probe_tracer, &probe);
      report.FillMissingLayers(probe);
      probes += (probes.empty() ? "" : ",") + po.workload;
    }
    report.Param("layer_probes", probes);
    report.Param("layer_probe_seconds", kProbeSeconds);
  }
  const HostCpu host_after = ReadHostCpu();
  const int64_t ticks = host_after.total - host_before.total;
  report.Extra("host.steal_frac",
               ticks > 0 ? static_cast<double>(host_after.steal -
                                               host_before.steal) /
                               ticks
                         : 0.0,
               "ratio", 1);
  report.Print(opts);
  if (!report.WriteJson(opts, out)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", out.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
