// serve_closed_pool57: in-process Sessions in a closed loop against one
// shard, arrival pools of the paper's mean size. Each actor thread sends
// its next arrival as soon as the previous feedback call returns.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "serve/sharded_service.h"
#include "serve/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowdrl::Observation;
using crowdrl::Rng;
using crowdrl::ShardedArrangementService;

using closed::kPool;
using closed::kSetups;
constexpr int kWarmupPerActor = 32;  // closed-loop arrivals before timing
constexpr int kInputsPerActor = 512; // pre-generated observations per actor

uint64_t ActorSeed(uint64_t seed, int actor) {
  return seed ^ (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(actor + 1));
}

/// Everything one timed phase needs, built from the seed.
struct Stack {
  std::unique_ptr<crowdrl::ServeWorkload> workload;
  std::unique_ptr<ShardedArrangementService> service;
  std::vector<std::vector<Observation>> inputs;  // per actor
  std::vector<Rng> feedback_rngs;                // per actor
};

/// One actor's record of the timed phase.
struct ActorLog {
  std::vector<double> rank_ms, feedback_ms, staleness;
  std::vector<int64_t> rank_start_ns;  // parallel to rank_ms
  int64_t arrivals = 0, completions = 0, invalid = 0;
};

std::unique_ptr<Stack> SetUp(uint64_t seed, int actors) {
  auto s = std::make_unique<Stack>();
  crowdrl::ServeWorkloadConfig wcfg;
  wcfg.pool_size = kPool;
  wcfg.seed = kDeployedSeed ^ 0x5EEDULL;
  s->workload = std::make_unique<crowdrl::ServeWorkload>(wcfg);
  s->service = ShardedArrangementService::Create(
      DeployedFrameworkConfig(), s->workload.get(),
      s->workload->worker_feature_dim(), s->workload->task_feature_dim(),
      /*num_shards=*/1, DeployedServiceConfig());
  for (int a = 0; a < actors; ++a) {
    Rng rng(ActorSeed(seed, a));
    std::vector<Observation> obs;
    obs.reserve(kInputsPerActor);
    for (int i = 0; i < kInputsPerActor; ++i) {
      obs.push_back(s->workload->MakeObservation(i, &rng));
    }
    s->inputs.push_back(std::move(obs));
    s->feedback_rngs.emplace_back(ActorSeed(seed, a) ^ 0xFEEDULL);
  }
  s->service->Start();
  // Warm-up: fills the learner's replay past one batch and warms the
  // per-thread inference workspaces, so timing starts in steady state.
  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&s, a] {
      auto session = s->service->NewSession();
      for (int i = 0; i < kWarmupPerActor; ++i) {
        Observation obs = s->inputs[a][kInputsPerActor - 1 - i];
        s->service->RecordArrival(obs);
        ShardedArrangementService::Ticket ticket;
        const std::vector<int> ranking = session->Rank(obs, &ticket);
        session->Feedback(obs, ticket, ranking,
                          s->workload->SimulateFeedback(
                              obs, ranking, &s->feedback_rngs[a]));
      }
      session->Flush();
    });
  }
  for (auto& t : threads) t.join();
  // Let the learner finish the warm-up events so the timed phase counts
  // only its own.
  while (true) {
    const crowdrl::ServiceStats st = s->service->shard(0)->stats();
    if (st.events_processed >= st.events_submitted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return s;
}

}  // namespace

void RunServeClosed(const RunOptions& opts, Tracer* tracer, Report* report) {
  const int actors = opts.load_threads;
  report->Param("pool", kPool);
  report->Param("actors", actors);
  report->Param("shards", 1);
  report->Param("setups", kSetups);

  // Set up several times; the last stack is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    if (stack != nullptr) stack->service->Stop();
    stack.reset();
    const int64_t t = NowNs();
    stack = SetUp(opts.seed, actors);
    setup_s.push_back((NowNs() - t) / 1e9);
  }
  ShardedArrangementService& service = *stack->service;
  crowdrl::ServiceShard& shard = *service.shard(0);
  const crowdrl::TaskArrangementFramework& fw = *shard.framework();
  const int64_t learn_steps_before = fw.worker_agent()->learn_steps() +
                                     fw.requester_agent()->learn_steps();
  const crowdrl::ServiceStats before = service.stats().aggregate;
  const bool traced = tracer->enabled();

  std::vector<ActorLog> logs(actors);
  std::atomic<int64_t> next_arrival{0};
  std::atomic<bool> done{false};
  std::atomic<int64_t> backlog_max{0};
  const ProcUsage usage_before = ReadProcUsage();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(opts.seconds * 1e9);

  // Traced runs sample the learner backlog from outside the service.
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (!done.load()) {
        const crowdrl::ServiceStats st = shard.stats();
        backlog_max.store(std::max(backlog_max.load(),
                                   st.events_submitted - st.events_processed));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }

  std::vector<std::thread> threads;
  for (int a = 0; a < actors; ++a) {
    threads.emplace_back([&, a] {
      ActorLog& log = logs[a];
      auto session = service.NewSession();
      Rng& fb_rng = stack->feedback_rngs[a];
      const std::vector<Observation>& inputs = stack->inputs[a];
      for (int64_t k = 0; NowNs() < deadline; ++k) {
        Observation obs = inputs[static_cast<size_t>(k) % inputs.size()];
        obs.arrival_index = next_arrival.fetch_add(1);
        service.RecordArrival(obs);
        ShardedArrangementService::Ticket ticket;
        std::vector<int> ranking;
        const int64_t r0 = NowNs();
        {
          ScopedSpan span(tracer, "serve.rank", obs.arrival_index);
          ranking = session->Rank(obs, &ticket);
        }
        const int64_t r1 = NowNs();
        if (!IsPermutation(ranking, obs.tasks.size())) ++log.invalid;
        const crowdrl::Feedback fb =
            stack->workload->SimulateFeedback(obs, ranking, &fb_rng);
        if (traced) {
          log.staleness.push_back(static_cast<double>(
              shard.CurrentSnapshot()->version -
              ticket.inner.snapshot_version));
        }
        const int64_t f0 = NowNs();
        {
          ScopedSpan span(tracer, "serve.feedback", obs.arrival_index);
          session->Feedback(obs, ticket, ranking, fb);
        }
        const int64_t f1 = NowNs();
        log.rank_ms.push_back(MsBetween(r0, r1));
        log.rank_start_ns.push_back(r0);
        log.feedback_ms.push_back(MsBetween(f0, f1));
        ++log.arrivals;
        if (fb.completed_pos >= 0) ++log.completions;
      }
      session->Flush();
    });
  }
  for (auto& t : threads) t.join();
  const int64_t t_arrivals = NowNs();
  service.Stop();  // drains the learner: every flushed event is learned
  const int64_t t_stop = NowNs();
  done.store(true);
  if (sampler.joinable()) sampler.join();
  const ProcUsage usage_after = ReadProcUsage();

  ActorLog all;
  for (const ActorLog& log : logs) {
    all.rank_ms.insert(all.rank_ms.end(), log.rank_ms.begin(),
                       log.rank_ms.end());
    all.feedback_ms.insert(all.feedback_ms.end(), log.feedback_ms.begin(),
                           log.feedback_ms.end());
    all.staleness.insert(all.staleness.end(), log.staleness.begin(),
                         log.staleness.end());
    all.arrivals += log.arrivals;
    all.completions += log.completions;
    all.invalid += log.invalid;
  }
  const crowdrl::ServiceStats st = service.stats().aggregate;
  const int64_t events = st.events_submitted - before.events_submitted;
  const int64_t learned = st.events_processed - before.events_processed;
  const int64_t not_learned = st.events_submitted - st.events_processed;
  const int64_t shed = st.shed - before.shed;
  const int64_t rejected = st.rejected - before.rejected;
  const int64_t dropped = st.blocks_dropped - before.blocks_dropped;
  if (all.invalid > 0) report->Fail("closed: ranking is not a permutation");
  if (not_learned != 0) report->Fail("closed: events processed != submitted");
  report->Count(all.arrivals, shed + rejected + all.invalid + not_learned +
                                  dropped);

  // All actors' rank times in the order the calls started, for the
  // windowed tail.
  std::vector<std::pair<int64_t, double>> timed;
  for (const ActorLog& log : logs) {
    for (size_t i = 0; i < log.rank_ms.size(); ++i) {
      timed.emplace_back(log.rank_start_ns[i], log.rank_ms[i]);
    }
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> rank_in_order;
  for (const auto& [start, ms] : timed) rank_in_order.push_back(ms);

  const double wall_s = (t_arrivals - t0) / 1e9;
  const Quantile p50 = Percentile(all.rank_ms, 0.5);
  const Quantile p99 = Percentile(all.rank_ms, 0.99);
  // Sample-size checks apply to untraced (--trace=0) runs only.
  if (!p99.supported && !opts.trace) {
    report->Fail("closed: too few samples for rank p99");
  }
  report->E2e("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));
  report->E2e("peak_rss_mb", usage_after.peak_rss_mb, "MB", 1);
  report->E2e("arrivals_per_s", all.arrivals / wall_s, "1/s", all.arrivals);
  report->E2e("learned_events_per_s", learned / ((t_stop - t0) / 1e9), "1/s",
              learned);
  report->E2e("rank_rtt_p50_ms", p50.value, "ms", p50.samples);
  // Tails are reported, not gated: p95 as the median over kTailWindows
  // consecutive slices, and p99. Both moved by a third or more between runs
  // when the host's speed drifted.
  const Quantile p95 =
      WindowedPercentile(rank_in_order, 0.95, kTailWindows);
  if (!p95.supported && !opts.trace) {
    report->Fail("too few samples for the windowed rank p95");
  }
  report->Extra("rank_rtt_p95_ms", p95.value, "ms", p95.samples);
  report->Extra("rank_rtt_p99_ms", p99.value, "ms", p99.samples);
  const Quantile fb50 = Percentile(all.feedback_ms, 0.5);
  report->E2e("feedback_update_ms_p50", fb50.value, "ms", fb50.samples);
  report->E2e("completion_rate",
              static_cast<double>(all.completions) / all.arrivals, "ratio",
              all.arrivals);
  report->Extra("failed_frac",
                static_cast<double>(report->failed()) / report->attempted(),
                "ratio", report->attempted());
  report->Param("events", static_cast<double>(events));

  if (!traced) return;
  LayerQuantiles(report, "serve.rank_call_ms", all.rank_ms, "ms");
  LayerQuantiles(report, "serve.feedback_call_ms", all.feedback_ms, "ms");
  report->Layer("serve.queue_to_done_ms_p50", st.rank_latency_p50_ms, "ms",
                st.rank_count);
  report->Layer("serve.queue_to_done_ms_p99", st.rank_latency_p99_ms, "ms",
                st.rank_count);
  const int64_t batches = st.batches - before.batches;
  report->Layer("serve.batches", static_cast<double>(batches), "count", 1);
  report->Layer("serve.mean_batch_size",
                batches > 0
                    ? static_cast<double>(st.requests - before.requests) /
                          batches
                    : 0.0,
                "count", batches);
  report->Layer("serve.learner_backlog_events_max",
                static_cast<double>(backlog_max.load()), "count", 1);
  report->Layer("serve.drain_s", (t_stop - t_arrivals) / 1e9, "s", 1);
  report->Layer("serve.snapshot_publishes",
                static_cast<double>(st.snapshot_version -
                                    before.snapshot_version),
                "count", 1);
  const int64_t copied = st.snapshot_nets_copied - before.snapshot_nets_copied;
  const int64_t shared = st.snapshot_nets_shared - before.snapshot_nets_shared;
  report->Layer("serve.snapshot_nets_copied_frac",
                copied + shared > 0
                    ? static_cast<double>(copied) / (copied + shared)
                    : 0.0,
                "ratio", copied + shared);
  LayerQuantiles(report, "serve.staleness_versions", all.staleness,
                 "versions");
  report->Layer("serve.shed", static_cast<double>(shed), "count", 1);
  report->Layer("serve.rejected", static_cast<double>(rejected), "count", 1);
  report->Layer("serve.blocks_dropped", static_cast<double>(dropped), "count",
                1);
  report->Layer("serve.replay_bytes", static_cast<double>(st.replay_bytes),
                "bytes", 1);
  const int64_t learn_steps = fw.worker_agent()->learn_steps() +
                              fw.requester_agent()->learn_steps() -
                              learn_steps_before;
  report->Layer("rl.learn_steps", static_cast<double>(learn_steps), "count", 1);
  report->Layer("rl.learn_steps_per_event",
                learned > 0 ? static_cast<double>(learn_steps) / learned : 0.0,
                "ratio", learned);
  ReportProcDelta(usage_before, usage_after, report);
}

}  // namespace perfbench
