// paper_replay: the serial reproduction. A synthetic CrowdSpring-calibrated
// trace at reduced scale is replayed through ReplayHarness: the init month
// warm-starts the DDQN framework (Objective::kBalanced, both Q-networks
// learning), then the evaluated months are ranked and learned from one
// arrival at a time. The framework is wrapped in a timing Policy: untraced
// rounds time the framework's own Rank and OnFeedback; traced rounds drive
// the decomposed decision API those compose (BuildDecision → ScoreDecision
// → RankDecision, MakeTransitions → ApplyTransitions) so each part gets a
// span. Both paths must produce bit-identical quality.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "data/synthetic.h"
#include "eval/experiment.h"
#include "eval/harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crowdrl::DecisionContext;
using crowdrl::Observation;
using crowdrl::TaskArrangementFramework;

constexpr int kDecisionSeeds = 2;  // worker-decision seeds per run

/// Decorator timing every call the harness makes into the policy.
class TimedPolicy final : public crowdrl::Policy {
 public:
  TimedPolicy(TaskArrangementFramework* fw, Tracer* tracer)
      : fw_(fw), tracer_(tracer) {}

  std::string name() const override { return fw_->name(); }

  void OnArrival(const Observation& obs) override {
    ScopedSpan t(tracer_, "policy.on_arrival", obs.arrival_index);
    ++arrivals_;
    fw_->OnArrival(obs);
  }

  void OnHistory(const Observation& obs, const std::vector<int>& order,
                 int completed_pos, double quality_gain) override {
    ScopedSpan t(tracer_, "policy.on_history", obs.arrival_index);
    fw_->OnHistory(obs, order, completed_pos, quality_gain);
  }

  void OnInitEnd() override {
    {
      ScopedSpan t(tracer_, "policy.on_init_end", -1);
      fw_->OnInitEnd();
    }
    init_end_ns_ = NowNs();
  }

  std::vector<int> Rank(const Observation& obs) override {
    const int64_t r0 = NowNs();
    if (first_rank_ns_ == 0) first_rank_ns_ = r0;
    const std::vector<int> ranking =
        tracer_->enabled() ? TracedRank(obs) : fw_->Rank(obs);
    rank_ms.push_back(MsBetween(r0, NowNs()));
    if (!IsPermutation(ranking, obs.tasks.size())) ++invalid;
    return ranking;
  }

  void OnFeedback(const Observation& obs, const std::vector<int>& ranking,
                  const crowdrl::Feedback& feedback) override {
    const int64_t f0 = NowNs();
    bool learned = false;
    if (tracer_->enabled()) {
      learned = TracedFeedback(obs, ranking, feedback);
    } else {
      // The framework drops feedback it has no pending decision for.
      const size_t pending = fw_->pending_decisions();
      fw_->OnFeedback(obs, ranking, feedback);
      learned = fw_->pending_decisions() < pending;
    }
    feedback_ms.push_back(MsBetween(f0, NowNs()));
    if (learned) ++events_learned;
  }

  int64_t LearnSteps() const {
    return fw_->worker_agent()->learn_steps() +
           fw_->requester_agent()->learn_steps();
  }

  // ---- what the run observed ----
  std::vector<double> rank_ms, feedback_ms;
  int64_t invalid = 0;
  int64_t events_learned = 0;
  int64_t arrivals() const { return arrivals_; }
  int64_t first_rank_ns() const { return first_rank_ns_; }
  int64_t init_end_ns() const { return init_end_ns_; }
  double score_flops = 0, learn_flops = 0;

 private:
  /// TaskArrangementFramework::Rank, one span per part.
  std::vector<int> TracedRank(const Observation& obs) {
    ScopedSpan t(tracer_, "core.rank", obs.arrival_index);
    if (obs.tasks.empty()) return {};
    DecisionContext ctx;
    std::vector<double> combined;
    std::vector<int> ranking;
    const crowdrl::ScoringView view = fw_->LiveView();
    {
      ScopedSpan s(tracer_, "core.build_decision", obs.arrival_index);
      ctx = fw_->BuildDecision(obs);
    }
    {
      ScopedSpan s(tracer_, "core.score", obs.arrival_index);
      combined = fw_->ScoreDecision(ctx, view);
    }
    {
      ScopedSpan s(tracer_, "core.rank_decision", obs.arrival_index);
      ranking = fw_->RankDecision(obs, ctx, combined);
    }
    CountScoreFlops(ctx);
    // Same bounded pending map as the framework's own Rank.
    pending_[obs.arrival_index] = std::move(ctx);
    while (pending_.size() > TaskArrangementFramework::kMaxPendingDecisions) {
      pending_.erase(pending_.begin());
    }
    return ranking;
  }

  /// TaskArrangementFramework::OnFeedback, one span per part. Returns
  /// whether the event was learned from.
  bool TracedFeedback(const Observation& obs, const std::vector<int>& ranking,
                      const crowdrl::Feedback& feedback) {
    ScopedSpan t(tracer_, "core.feedback", obs.arrival_index);
    auto it = pending_.find(obs.arrival_index);
    if (it == pending_.end()) return false;
    crowdrl::TransitionBlocks blocks;
    {
      ScopedSpan s(tracer_, "core.make_transitions", obs.arrival_index);
      blocks = fw_->MakeTransitions(obs, it->second, ranking, feedback,
                                    fw_->LiveView());
    }
    const int64_t steps_before = LearnSteps();
    RecordStoredRows(blocks);
    {
      ScopedSpan s(tracer_, "core.apply_transitions", obs.arrival_index);
      fw_->ApplyTransitions(std::move(blocks));
    }
    CountLearnFlops(LearnSteps() - steps_before);
    pending_.erase(it);
    return true;
  }

  void CountScoreFlops(const DecisionContext& ctx) {
    const double h = static_cast<double>(
        fw_->config().worker_dqn.net.hidden_dim);
    for (const crowdrl::BuiltState* b :
         {&ctx.worker_built, &ctx.requester_built}) {
      score_flops += QNetForwardFlops(static_cast<double>(b->matrix.rows()),
                                      static_cast<double>(b->matrix.cols()), h);
    }
  }

  void RecordStoredRows(const crowdrl::TransitionBlocks& blocks) {
    for (const auto* block : {&blocks.worker, &blocks.requester}) {
      for (const auto& t : *block) {
        stored_rows_ += static_cast<double>(t.state.rows());
        stored_cols_ += static_cast<double>(t.state.cols());
        ++stored_;
      }
    }
  }

  /// One learner step runs a forward and a backward (≈ 2 forwards) per
  /// sampled transition; sampled state shapes are approximated by the mean
  /// shape of the transitions stored so far.
  void CountLearnFlops(int64_t steps) {
    if (steps <= 0 || stored_ == 0) return;
    const double h = static_cast<double>(
        fw_->config().worker_dqn.net.hidden_dim);
    const double batch = static_cast<double>(
        fw_->config().worker_dqn.batch_size);
    learn_flops += static_cast<double>(steps) * batch * 3.0 *
                   QNetForwardFlops(stored_rows_ / stored_,
                                    stored_cols_ / stored_, h);
  }

  TaskArrangementFramework* fw_;
  Tracer* tracer_;
  std::map<int64_t, DecisionContext> pending_;  // traced rounds only
  int64_t arrivals_ = 0;
  int64_t first_rank_ns_ = 0;
  int64_t init_end_ns_ = 0;
  double stored_rows_ = 0, stored_cols_ = 0;
  int64_t stored_ = 0;
};

/// Bit pattern of the quality metrics: equal iff the runs are identical.
std::string Fingerprint(const crowdrl::MetricValues& m) {
  std::string out;
  for (double v : {m.cr, m.kcr, m.ndcg_cr, m.qg, m.kqg, m.ndcg_qg}) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    out += buf;
  }
  return out;
}

}  // namespace

void RunPaperReplay(const RunOptions& opts, Tracer* tracer, Report* report) {
  // A --trace 1 run measures one untraced and one traced round, so that
  // their quality can be compared bit for bit.
  const int min_rounds = opts.trace ? 1 : replay::kMinRounds;
  report->Param("scale", replay::kScale);
  report->Param("eval_months", replay::kEvalMonths);
  report->Param("min_rounds", replay::kMinRounds);
  report->Param("trace_seed", static_cast<double>(replay::kTraceSeed));
  report->Param("objective", "balanced");

  std::vector<double> setup_s, arrivals_per_s, learned_per_s;
  std::vector<double> rank_ms, feedback_ms;
  // Rounds alternate between kDecisionSeeds worker-decision seeds: the
  // quality metrics average over them (halving their binomial noise), and
  // each later round of a seed must reproduce its first bit for bit.
  std::vector<std::string> fingerprints(kDecisionSeeds);
  std::vector<crowdrl::MetricValues> quality(kDecisionSeeds);
  int64_t evaluated = 0;
  const ProcUsage usage_before = ReadProcUsage();
  // Whole rounds, at least min_rounds of them, until --seconds are spent.
  const int64_t start = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(opts.seconds * 1e9);
  for (int round = 0; round < min_rounds || NowNs() - start < budget_ns;
       ++round) {
    const int64_t t0 = NowNs();
    const int variant = round % kDecisionSeeds;
    const uint64_t seed = opts.seed + variant * 0x9E3779B97F4A7C15ULL;
    crowdrl::SyntheticConfig scfg;
    scfg.scale = replay::kScale;
    scfg.eval_months = replay::kEvalMonths;
    scfg.seed = replay::kTraceSeed;
    crowdrl::Dataset ds;
    {
      ScopedSpan span(tracer, "data.generate", -1);
      ds = crowdrl::SyntheticGenerator(scfg).Generate();
    }
    const int64_t t_generated = NowNs();
    crowdrl::ExperimentConfig ecfg;
    ecfg.seed = seed;
    ecfg.harness.seed = seed;
    ecfg.harness.behavior.seed = seed ^ 0xC0FFEEULL;
    const crowdrl::Experiment experiment(&ds, ecfg);
    crowdrl::ReplayHarness harness(&ds, ecfg.harness);
    TaskArrangementFramework fw(
        experiment.MakeFrameworkConfig(crowdrl::Objective::kBalanced),
        &harness, harness.worker_feature_dim(), harness.task_feature_dim());
    TimedPolicy policy(&fw, tracer);
    const int64_t run0 = NowNs();
    crowdrl::RunResult result;
    {
      ScopedSpan span(tracer, "eval.run", -1);
      result = harness.Run(&policy);
    }
    const int64_t t_end = NowNs();

    if (policy.invalid > 0) {
      report->Fail("replay: ranking is not a permutation");
    }
    if (policy.events_learned != result.arrivals_evaluated) {
      report->Fail("replay: feedback events learned != evaluated arrivals");
    }
    if (policy.first_rank_ns() == 0) {
      report->Fail("replay: no evaluated arrival");
      return;
    }
    report->Count(result.arrivals_evaluated,
                  policy.invalid + (result.arrivals_evaluated -
                                    policy.events_learned));
    const std::string f = Fingerprint(result.final_metrics);
    if (fingerprints[variant].empty()) {
      fingerprints[variant] = f;
      quality[variant] = result.final_metrics;
      evaluated += result.arrivals_evaluated;
    } else if (f != fingerprints[variant]) {
      report->Fail("replay: quality differs between repeats at one seed");
    }
    const double eval_s = (t_end - policy.first_rank_ns()) / 1e9;
    setup_s.push_back((policy.first_rank_ns() - t0) / 1e9);
    arrivals_per_s.push_back(result.arrivals_evaluated / eval_s);
    learned_per_s.push_back(policy.events_learned / eval_s);
    rank_ms.insert(rank_ms.end(), policy.rank_ms.begin(), policy.rank_ms.end());
    feedback_ms.insert(feedback_ms.end(), policy.feedback_ms.begin(),
                       policy.feedback_ms.end());

    if (!tracer->enabled() || round + 1 < min_rounds) continue;
    // Per-layer numbers from the last round of a traced run.
    const auto spans = AggregateSpans(tracer->Collect());
    auto self_sum = [&](const char* name) {
      auto it = spans.find(name);
      double total = 0;
      if (it != spans.end()) {
        for (double v : it->second.self_ms) total += v;
      }
      return total;
    };
    auto layer_p = [&](const char* name, const std::string& metric) {
      auto it = spans.find(name);
      LayerQuantiles(report, metric,
                     it == spans.end() ? std::vector<double>{}
                                       : it->second.total_ms,
                     "ms");
    };
    layer_p("core.build_decision", "core.build_decision_ms");
    layer_p("core.score", "core.score_ms");
    layer_p("core.rank_decision", "core.rank_decision_ms");
    layer_p("core.make_transitions", "core.make_transitions_ms");
    layer_p("core.apply_transitions", "core.apply_transitions_ms");
    report->Layer("core.transitions_stored",
                  static_cast<double>(fw.transitions_stored()), "count", 1);
    const int64_t steps = policy.LearnSteps();
    report->Layer("rl.learn_steps", static_cast<double>(steps), "count", 1);
    report->Layer("rl.learn_steps_per_event",
                  policy.events_learned > 0
                      ? static_cast<double>(steps) / policy.events_learned
                      : 0.0,
                  "ratio", policy.events_learned);
    const double score_self = self_sum("core.score");
    const double apply_self = self_sum("core.apply_transitions");
    report->Layer("nn.score_gflops",
                  score_self > 0 ? policy.score_flops / (score_self * 1e6) : 0,
                  "GFLOP/s", static_cast<int64_t>(policy.rank_ms.size()));
    report->Layer("nn.learn_gflops",
                  apply_self > 0 ? policy.learn_flops / (apply_self * 1e6) : 0,
                  "GFLOP/s", policy.events_learned);
    report->Layer("data.generate_s", (t_generated - t0) / 1e9, "s", 1);
    report->Layer("eval.init_phase_s", (policy.init_end_ns() - run0) / 1e9,
                  "s", 1);
    // eval.run's self time: the harness's own work between policy calls.
    report->Layer("eval.harness_self_ms_per_arrival",
                  self_sum("eval.run") / static_cast<double>(policy.arrivals()),
                  "ms", policy.arrivals());
  }
  const ProcUsage usage_after = ReadProcUsage();

  const Quantile p50 = Percentile(rank_ms, 0.5);
  const Quantile p99 = Percentile(rank_ms, 0.99);
  // Sample-size checks apply to untraced (--trace=0) runs only.
  if (!p99.supported && !opts.trace) {
    report->Fail("replay: too few samples for rank p99");
  }
  const Quantile fb50 = Percentile(feedback_ms, 0.5);
  const int64_t rounds = static_cast<int64_t>(setup_s.size());
  report->Param("rounds", static_cast<double>(rounds));
  // Mean quality over the decision seeds that ran; the fingerprint of the
  // first one is what a traced round is compared against.
  crowdrl::MetricValues metrics;
  int seeds_run = 0;
  for (int v = 0; v < kDecisionSeeds; ++v) {
    if (fingerprints[v].empty()) continue;
    ++seeds_run;
    metrics.cr += quality[v].cr;
    metrics.ndcg_cr += quality[v].ndcg_cr;
    metrics.qg += quality[v].qg;
  }
  metrics.cr /= seeds_run;
  metrics.ndcg_cr /= seeds_run;
  metrics.qg /= seeds_run;
  report->Param("decision_seeds", seeds_run);
  report->SetFingerprint(fingerprints[0]);
  report->E2e("setup_s", Median(setup_s), "s", rounds);
  report->E2e("peak_rss_mb", usage_after.peak_rss_mb, "MB", 1);
  report->E2e("arrivals_per_s", Median(arrivals_per_s), "1/s", rounds);
  report->E2e("learned_events_per_s", Median(learned_per_s), "1/s", rounds);
  report->E2e("rank_rtt_p50_ms", p50.value, "ms", p50.samples);
  // Tails are reported, not gated: p95 as the median over kTailWindows
  // consecutive slices, and p99. Both moved by a third or more between runs
  // when the host's speed drifted.
  const Quantile p95 =
      WindowedPercentile(rank_ms, 0.95, kTailWindows);
  if (!p95.supported && !opts.trace) {
    report->Fail("too few samples for the windowed rank p95");
  }
  report->Extra("rank_rtt_p95_ms", p95.value, "ms", p95.samples);
  report->Extra("rank_rtt_p99_ms", p99.value, "ms", p99.samples);
  report->E2e("feedback_update_ms_p50", fb50.value, "ms", fb50.samples);
  report->E2e("completion_rate", metrics.cr, "ratio", evaluated);
  report->Extra("ndcg_cr", metrics.ndcg_cr, "ratio", evaluated);
  report->Extra("quality_gain", metrics.qg, "gain", evaluated);
  report->Extra("failed_frac",
                static_cast<double>(report->failed()) / report->attempted(),
                "ratio", report->attempted());
  if (tracer->enabled()) {
    report->Layer("eval.completion_rate", metrics.cr, "ratio", evaluated);
    report->Layer("eval.ndcg_cr", metrics.ndcg_cr, "ratio", evaluated);
    report->Layer("eval.quality_gain", metrics.qg, "gain", evaluated);
    ReportProcDelta(usage_before, usage_after, report);
  }
}

}  // namespace perfbench
