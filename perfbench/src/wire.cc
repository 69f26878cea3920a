// serve_open_wire: an in-process LearnerDaemon on the uds transport, driven
// by ActorClient connections replaying one pre-generated open-loop
// schedule, whose arrival gaps are those of the calibrated synthetic trace. Connection 0 scores locally against a pulled snapshot replica
// (FetchSnapshot + SubmitTransitions); the others are thin actors
// (Rank + Feedback). Arrival i is carried by connection i mod C.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "data/synthetic.h"
#include "net/actor_client.h"
#include "net/learner_daemon.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowdrl::Observation;
using crowdrl::Rng;
using crowdrl::ShardedArrangementService;
using crowdrl::Status;
using crowdrl::net::ActorClient;

using wire::kFetchEvery;
using wire::kLadderRates;
using wire::kNominalStep;
using wire::kSetups;
using wire::kSlo;
using wire::kSteps;

constexpr int kWarmupPerConnection = 32;
constexpr double kLateToleranceS = 1e-3;  // a send this late counts as late

/// What the generator saw for one scheduled arrival (ms from t0).
struct ArrivalLog {
  double sent_ms = 0;
  double rank_done_ms = 0;
  double rank_call_ms = 0;
  double feedback_call_ms = 0;
  double staleness = 0;
  bool ok = false;
  bool completed = false;
};

/// Connection-local counters the traced run reports.
struct ConnectionLog {
  std::vector<double> fetch_ms, submit_ms;
  int64_t fetches = 0, fetch_changed = 0, fetch_bytes = 0;
};

struct Stack {
  std::unique_ptr<crowdrl::ServeWorkload> workload;
  std::unique_ptr<ShardedArrangementService> service;
  std::unique_ptr<crowdrl::net::LearnerDaemon> daemon;
  std::vector<std::unique_ptr<ActorClient>> clients;
  std::unique_ptr<crowdrl::TaskArrangementFramework> local;  // connection 0
  ~Stack() {
    clients.clear();
    if (daemon != nullptr) daemon->Stop();
    if (service != nullptr) service->Stop();
  }
};

/// One arrival through connection `c`: thin (server-scored) or local.
/// Returns false on any call error or invalid ranking.
bool Drive(Stack* s, int c, const Observation& obs, Rng* fb_rng,
           Tracer* tracer, ConnectionLog* clog, ArrivalLog* out,
           int64_t t0, int64_t local_count) {
  ActorClient& client = *s->clients[c];
  const bool traced = tracer->enabled();
  std::vector<int> ranking;
  uint64_t scored_version = 0;
  Status st;
  const int64_t r0 = NowNs();
  if (c == 0) {
    if (local_count > 0 && local_count % kFetchEvery == 0) {
      const int64_t before = client.bytes_received();
      bool changed = false;
      const int64_t q0 = NowNs();
      {
        ScopedSpan span(tracer, "net.snapshot_fetch", obs.arrival_index);
        st = client.FetchSnapshot(0, &changed);
      }
      clog->fetch_ms.push_back(MsBetween(q0, NowNs()));
      ++clog->fetches;
      clog->fetch_changed += changed ? 1 : 0;
      clog->fetch_bytes += client.bytes_received() - before;
      if (!st.ok()) return false;
    }
    ScopedSpan span(tracer, "local.rank", obs.arrival_index);
    s->local->OnArrival(obs);
    const crowdrl::ScoringView view = client.replica()->View();
    const crowdrl::DecisionContext ctx = s->local->BuildDecision(obs);
    ranking = s->local->RankDecision(obs, ctx,
                                     s->local->ScoreDecision(ctx, view));
    scored_version = client.replica_version();
    const int64_t r1 = NowNs();
    out->rank_done_ms = MsBetween(t0, r1);
    out->rank_call_ms = MsBetween(r0, r1);
    if (!IsPermutation(ranking, obs.tasks.size())) return false;
    const crowdrl::Feedback fb =
        s->workload->SimulateFeedback(obs, ranking, fb_rng);
    out->completed = fb.completed_pos >= 0;
    if (traced) {
      out->staleness = static_cast<double>(
          s->service->shard(0)->CurrentSnapshot()->version - scored_version);
    }
    const crowdrl::TransitionBlocks blocks =
        s->local->MakeTransitions(obs, ctx, ranking, fb, view);
    crowdrl::net::FeedbackResponseHead resp;
    const int64_t f0 = NowNs();
    {
      ScopedSpan submit(tracer, "net.submit", obs.arrival_index);
      st = client.SubmitTransitions(obs.arrival_index, obs.worker, fb, blocks,
                                    &resp);
    }
    out->feedback_call_ms = MsBetween(f0, NowNs());
    clog->submit_ms.push_back(out->feedback_call_ms);
    return st.ok() && resp.accepted != 0;
  }
  crowdrl::net::DecodedRankResponse rank;
  {
    ScopedSpan span(tracer, "net.rank", obs.arrival_index);
    st = client.Rank(obs, /*record_arrival=*/true, &rank);
  }
  const int64_t r1 = NowNs();
  out->rank_done_ms = MsBetween(t0, r1);
  out->rank_call_ms = MsBetween(r0, r1);
  if (!st.ok() || rank.degraded ||
      !IsPermutation(rank.ranking, obs.tasks.size())) {
    return false;
  }
  const crowdrl::Feedback fb =
      s->workload->SimulateFeedback(obs, rank.ranking, fb_rng);
  out->completed = fb.completed_pos >= 0;
  if (traced) {
    out->staleness = static_cast<double>(
        s->service->shard(0)->CurrentSnapshot()->version -
        rank.snapshot_version);
  }
  crowdrl::net::FeedbackResponseHead resp;
  const int64_t f0 = NowNs();
  {
    ScopedSpan span(tracer, "net.feedback", obs.arrival_index);
    st = client.Feedback(obs.arrival_index, obs.worker, fb, &resp);
  }
  out->feedback_call_ms = MsBetween(f0, NowNs());
  return st.ok() && resp.accepted != 0;
}

/// Aggregate worker-arrival gaps (minutes) of the calibrated synthetic
/// trace generated from `seed`: its sessions, intra-session gaps and
/// heterogeneous worker activity are what make the arrivals cluster. Every
/// worker is active from the start, so the gaps carry no months-long trend
/// of joining workers (one run replays a few weeks of the trace), and the
/// init month, where sessions are still starting up, is left out.
std::vector<double> TraceArrivalGaps(uint64_t seed) {
  crowdrl::SyntheticConfig cfg;
  cfg.eval_months = wire::kTraceMonths;
  cfg.initially_active_fraction = 1.0;
  cfg.seed = seed;
  const crowdrl::Dataset ds = crowdrl::SyntheticGenerator(cfg).Generate();
  std::vector<int64_t> times;
  for (const crowdrl::Event& e : ds.events) {
    if (e.type == crowdrl::EventType::kWorkerArrival &&
        e.time >= crowdrl::kMinutesPerMonth) {
      times.push_back(static_cast<int64_t>(e.time));
    }
  }
  return GapsOfWholeUnitTimes(times, seed ^ 0x6A95ULL);
}

std::unique_ptr<Stack> SetUp(const RunOptions& opts, int connections,
                             Report* report) {
  auto s = std::make_unique<Stack>();
  crowdrl::ServeWorkloadConfig wcfg;
  wcfg.pool_size = wire::kPool;
  wcfg.seed = kDeployedSeed ^ 0x5EEDULL;
  s->workload = std::make_unique<crowdrl::ServeWorkload>(wcfg);
  s->service = ShardedArrangementService::Create(
      DeployedFrameworkConfig(), s->workload.get(),
      s->workload->worker_feature_dim(), s->workload->task_feature_dim(),
      /*num_shards=*/1, DeployedServiceConfig());
  s->service->Start();
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  s->daemon = std::make_unique<crowdrl::net::LearnerDaemon>(
      s->service.get(),
      opts.out_dir + "/wire-" + std::to_string(::getpid()) + ".sock");
  const Status started = s->daemon->Start();
  if (!started.ok()) {
    report->Fail("wire: daemon start: " + started.message());
    return nullptr;
  }
  for (int c = 0; c < connections; ++c) {
    auto client = ActorClient::Connect(s->daemon->socket_path());
    if (!client.ok()) {
      report->Fail("wire: connect: " + client.status().message());
      return nullptr;
    }
    s->clients.push_back(std::move(client).value());
  }
  s->local = std::make_unique<crowdrl::TaskArrangementFramework>(
      DeployedFrameworkConfig(), s->workload.get(),
      s->workload->worker_feature_dim(), s->workload->task_feature_dim());
  if (!s->clients[0]->FetchSnapshot(0).ok()) {
    report->Fail("wire: initial snapshot fetch failed");
    return nullptr;
  }
  // Closed-loop warm-up on every connection, outside the schedule.
  std::vector<std::thread> threads;
  std::vector<int> warm_failed(connections, 0);
  Tracer off(false);
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(opts.seed ^ (0xC0FFEEULL + static_cast<uint64_t>(c)));
      ConnectionLog clog;
      for (int i = 0; i < kWarmupPerConnection; ++i) {
        Observation obs = s->workload->MakeObservation(
            (int64_t{1} << 40) + c * kWarmupPerConnection + i, &rng);
        ArrivalLog log;
        if (!Drive(s.get(), c, obs, &rng, &off, &clog, &log, NowNs(), i)) {
          ++warm_failed[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int f : warm_failed) {
    if (f > 0) {
      report->Fail("wire: warm-up arrival failed");
      return nullptr;
    }
  }
  return s;
}

}  // namespace

void RunServeOpenWire(const RunOptions& opts, Tracer* tracer,
                      Report* report) {
  const int connections = std::max(2, opts.load_threads);
  constexpr int steps = kSteps;
  // Step durations ∝ share/rate: every step expects the same number of
  // arrivals (enough for a supported p99), the nominal step three times
  // that, because its latencies are the gated ones.
  std::vector<double> share(steps, 1.0);
  share[kNominalStep] = 3.0;
  double total = 0;
  for (int s = 0; s < steps; ++s) total += share[s] / kLadderRates[s];
  std::vector<double> step_s;
  for (int s = 0; s < steps; ++s) {
    step_s.push_back(opts.seconds * share[s] / kLadderRates[s] / total);
  }
  report->Param("pool", wire::kPool);
  report->Param("setups", kSetups);
  report->Param("connections", connections);
  report->Param("local_scoring_connections", 1);
  report->Param("fetch_every", kFetchEvery);
  for (int s = 0; s < steps; ++s) {
    report->Param("step" + std::to_string(s) + "_rate", kLadderRates[s]);
    report->Param("step" + std::to_string(s) + "_s", step_s[s]);
  }
  report->Param("nominal_step", kNominalStep);
  report->Param("slo_rtt_p99_ms", kSlo.rtt_p99_ms);
  report->Param("max_lag_growth_ms", kSlo.max_lag_growth_ms);
  report->Param("trace_months", wire::kTraceMonths);

  // The whole schedule and every observation are generated here, before
  // any timing: the program under test only receives these inputs.
  const std::vector<double> gaps = TraceArrivalGaps(opts.seed);
  report->Param("trace_gap_cv", GapCv(gaps));
  std::vector<LadderStep> ladder;
  for (int s = 0; s < steps; ++s) ladder.push_back({kLadderRates[s], step_s[s]});
  const std::vector<ScheduledArrival> schedule =
      MakeOpenLoopSchedule(ladder, gaps, opts.seed);
  const int64_t n = static_cast<int64_t>(schedule.size());

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    const int64_t t = NowNs();
    stack = SetUp(opts, connections, report);
    if (stack == nullptr) return;
    setup_s.push_back((NowNs() - t) / 1e9);
  }
  std::vector<Observation> inputs;
  inputs.reserve(schedule.size());
  for (int64_t i = 0; i < n; ++i) {
    Rng rng(schedule[i].input_seed);
    inputs.push_back(stack->workload->MakeObservation(i, &rng));
  }

  const crowdrl::ServiceStats before = stack->daemon->Stats();
  int64_t frames_before = 0, bytes_before = 0;
  for (const auto& c : stack->clients) {
    frames_before += c->frames_sent() + c->frames_received();
    bytes_before += c->bytes_sent() + c->bytes_received();
  }
  std::vector<ArrivalLog> logs(schedule.size());
  std::vector<ConnectionLog> clogs(connections);
  const ProcUsage usage_before = ReadProcUsage();
  const int64_t t0 = NowNs();
  const auto tp0 = std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t0));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      int64_t local_count = 0;
      for (int64_t i = c; i < n; i += connections) {
        std::this_thread::sleep_until(
            tp0 + std::chrono::nanoseconds(
                      static_cast<int64_t>(schedule[i].due_s * 1e9)));
        ArrivalLog& log = logs[i];
        log.sent_ms = MsBetween(t0, NowNs());
        Rng fb_rng(schedule[i].input_seed ^ 0xFEEDULL);
        log.ok = Drive(stack.get(), c, inputs[i], &fb_rng, tracer, &clogs[c],
                       &log, t0, local_count++);
      }
    });
  }
  for (auto& t : threads) t.join();
  const int64_t t_arrivals = NowNs();
  int64_t frames = -frames_before, bytes = -bytes_before;
  for (const auto& c : stack->clients) {
    frames += c->frames_sent() + c->frames_received();
    bytes += c->bytes_sent() + c->bytes_received();
  }
  stack->clients.clear();
  stack->daemon->Stop();
  stack->service->Stop();  // drains the learner
  const int64_t t_stop = NowNs();
  const ProcUsage usage_after = ReadProcUsage();
  const crowdrl::ServiceStats st = stack->daemon->Stats();

  // ---- per-step outcomes ----
  std::vector<StepOutcome> outcomes(steps);
  std::vector<std::vector<double>> step_due(steps), step_sent(steps),
      step_rtt(steps), step_fb(steps);
  int64_t failed_calls = 0, completions = 0;
  std::vector<double> rank_call, fb_call, staleness, lag_all;
  for (int64_t i = 0; i < n; ++i) {
    const int s = schedule[i].step;
    const ArrivalLog& log = logs[i];
    const double due_ms = schedule[i].due_s * 1e3;
    StepOutcome& o = outcomes[s];
    ++o.attempted;
    if (!log.ok) {
      ++o.failed;
      ++failed_calls;
      continue;
    }
    completions += log.completed ? 1 : 0;
    step_due[s].push_back(due_ms / 1e3);
    step_sent[s].push_back(log.sent_ms / 1e3);
    lag_all.push_back(log.sent_ms - due_ms);
    if (i % connections != 0) {  // thin connections: rank over the wire
      step_rtt[s].push_back(log.rank_done_ms - due_ms);
      step_fb[s].push_back(log.feedback_call_ms);
      rank_call.push_back(log.rank_call_ms);
      fb_call.push_back(log.feedback_call_ms);
    }
    staleness.push_back(log.staleness);
  }
  for (int s = 0; s < steps; ++s) {
    StepOutcome& o = outcomes[s];
    o.nominal_rate = kLadderRates[s];
    o.achieved_rate = (o.attempted - o.failed) / step_s[s];
    o.rtt_p99_ms = Percentile(step_rtt[s], 0.99);
    o.lag_growth_ms = LagGrowthMs(step_due[s], step_sent[s]);
  }
  const int best = SelectMaxRateStep(outcomes, kSlo);

  const int64_t not_learned = st.events_submitted - st.events_processed;
  const int64_t dropped = st.blocks_dropped - before.blocks_dropped;
  if (failed_calls > 0) report->Fail("wire: call errors or invalid rankings");
  if (not_learned != 0) report->Fail("wire: events processed != submitted");
  // Steps above max_rate_under_slo may miss the latency limit, but no
  // operation may fail on any of them.
  report->Count(n, failed_calls + not_learned + dropped);

  const int nominal = kNominalStep;
  const Quantile p50 = Percentile(step_rtt[nominal], 0.5);
  const Quantile p99 = Percentile(step_rtt[nominal], 0.99);
  // Sample-size checks apply to untraced (--trace=0) runs only.
  if (!p99.supported && !opts.trace) {
    report->Fail("wire: too few samples for rank p99");
  }
  const int64_t learned = st.events_processed - before.events_processed;
  const int64_t done = n - failed_calls;
  report->E2e("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->E2e("peak_rss_mb", usage_after.peak_rss_mb, "MB", 1);
  report->E2e("arrivals_per_s", done / ((t_arrivals - t0) / 1e9), "1/s",
              done);
  report->E2e("learned_events_per_s", learned / ((t_stop - t0) / 1e9), "1/s",
              learned);
  report->E2e("rank_rtt_p50_ms", p50.value, "ms", p50.samples);
  // Tails are reported, not gated: p95 as the median over kTailWindows
  // consecutive slices, and p99. Both moved by a third or more between runs
  // when the host's speed drifted.
  const Quantile p95 =
      WindowedPercentile(step_rtt[nominal], 0.95, kTailWindows);
  if (!p95.supported && !opts.trace) {
    report->Fail("too few samples for the windowed rank p95");
  }
  report->Extra("rank_rtt_p95_ms", p95.value, "ms", p95.samples);
  report->Extra("rank_rtt_p99_ms", p99.value, "ms", p99.samples);
  const Quantile fb50 = Percentile(step_fb[nominal], 0.5);
  report->E2e("feedback_update_ms_p50", fb50.value, "ms", fb50.samples);
  report->E2e("completion_rate", static_cast<double>(completions) / done,
              "ratio", done);
  report->Extra("max_rate_under_slo",
                best >= 0 ? outcomes[best].achieved_rate : 0.0, "1/s",
                best >= 0 ? outcomes[best].attempted : 0);
  report->Extra("max_rate_under_slo_nominal",
                best >= 0 ? outcomes[best].nominal_rate : 0.0, "1/s",
                best >= 0 ? outcomes[best].attempted : 0);
  report->Extra("failed_frac",
                static_cast<double>(report->failed()) / report->attempted(),
                "ratio", report->attempted());
  int64_t late = 0;
  for (int s = 0; s < steps; ++s) {
    late += CountLate(step_due[s], step_sent[s], kLateToleranceS);
  }
  report->Extra("loadgen.late_arrivals", static_cast<double>(late), "count",
                done);
  for (int s = 0; s < steps; ++s) {
    const std::string k = "loadgen.step" + std::to_string(s);
    report->Extra(k + ".rank_rtt_p99_ms", outcomes[s].rtt_p99_ms.value, "ms",
                  outcomes[s].rtt_p99_ms.supported
                      ? outcomes[s].rtt_p99_ms.samples
                      : 0);
    report->Extra(k + ".achieved_rate", outcomes[s].achieved_rate, "1/s",
                  outcomes[s].attempted);
    report->Extra(k + ".lag_growth_ms", outcomes[s].lag_growth_ms, "ms",
                  outcomes[s].attempted);
  }

  if (!tracer->enabled()) return;
  LayerQuantiles(report, "net.rank_call_ms", rank_call, "ms");
  LayerQuantiles(report, "net.feedback_call_ms", fb_call, "ms");
  report->Layer("serve.queue_to_done_ms_p50", st.rank_latency_p50_ms, "ms",
                st.rank_count);
  report->Layer("serve.queue_to_done_ms_p99", st.rank_latency_p99_ms, "ms",
                st.rank_count);
  // A difference of two distributions' medians, not a per-request span.
  report->Layer("net.rank_overhead_ms_p50",
                Percentile(rank_call, 0.5).value - st.rank_latency_p50_ms,
                "ms", static_cast<int64_t>(rank_call.size()));
  const int64_t batches = st.batches - before.batches;
  report->Layer("serve.batches", static_cast<double>(batches), "count", 1);
  report->Layer("serve.mean_batch_size",
                batches > 0
                    ? static_cast<double>(st.requests - before.requests) /
                          batches
                    : 0.0,
                "count", batches);
  LayerQuantiles(report, "serve.staleness_versions", staleness, "versions");
  report->Layer("serve.shed", static_cast<double>(st.shed - before.shed),
                "count", 1);
  report->Layer("serve.rejected",
                static_cast<double>(st.rejected - before.rejected), "count", 1);
  report->Layer("serve.blocks_dropped", static_cast<double>(dropped), "count",
                1);
  report->Layer("serve.replay_bytes", static_cast<double>(st.replay_bytes),
                "bytes", 1);
  report->Layer("net.frames_per_arrival", static_cast<double>(frames) / n,
                "count", n);
  report->Layer("net.bytes_per_arrival", static_cast<double>(bytes) / n,
                "bytes", n);
  const ConnectionLog& local = clogs[0];
  LayerQuantiles(report, "net.snapshot_fetch_ms", local.fetch_ms, "ms");
  report->Layer("net.snapshot_bytes_per_fetch",
                local.fetches > 0
                    ? static_cast<double>(local.fetch_bytes) / local.fetches
                    : 0.0,
                "bytes", local.fetches);
  report->Layer("net.snapshot_changed_frac",
                local.fetches > 0
                    ? static_cast<double>(local.fetch_changed) / local.fetches
                    : 0.0,
                "ratio", local.fetches);
  LayerQuantiles(report, "net.submit_call_ms", local.submit_ms, "ms");
  report->Layer("net.call_errors", static_cast<double>(failed_calls), "count",
                n);
  const Quantile lag99 = Percentile(lag_all, 0.99);
  report->Layer("loadgen.send_lag_p99_ms", lag99.value, "ms",
                lag99.supported ? lag99.samples : 0);
  for (int s = 0; s < steps; ++s) {
    report->Layer("loadgen.step" + std::to_string(s) + ".achieved_rate",
                  outcomes[s].achieved_rate, "1/s", outcomes[s].attempted);
  }
  report->Layer("loadgen.max_rate_under_slo",
                best >= 0 ? outcomes[best].achieved_rate : 0.0, "1/s",
                best >= 0 ? outcomes[best].attempted : 0);
  ReportProcDelta(usage_before, usage_after, report);
}

}  // namespace perfbench
