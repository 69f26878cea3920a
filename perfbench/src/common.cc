#include "workloads.h"

namespace perfbench {

crowdrl::FrameworkConfig DeployedFrameworkConfig() {
  crowdrl::FrameworkConfig cfg = crowdrl::FrameworkConfig::Defaults();
  cfg.worker_dqn.net.hidden_dim = 32;
  cfg.requester_dqn.net.hidden_dim = 32;
  cfg.worker_dqn.learn_every = 8;
  cfg.requester_dqn.learn_every = 8;
  cfg.predictor.max_segments = 2;
  cfg.max_failed_stored = 0;
  cfg.learn_from_history = false;
  cfg.seed = kDeployedSeed;
  return cfg;
}

crowdrl::ServiceConfig DeployedServiceConfig() {
  crowdrl::ServiceConfig cfg;
  cfg.publish_every_events = 4;
  return cfg;
}

double QNetForwardFlops(double n, double d, double h) {
  const double rff = 2 * n * d * h + 2 * (2 * n * h * h);  // rFF1, rFF2, rFF3
  // Q, K, V, O projections plus the QKᵀ and AV products.
  const double attention = 8 * n * h * h + 4 * n * n * h;
  return rff + 2 * attention + 2 * n * h;
}

void LayerQuantiles(Report* report, const std::string& prefix,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  for (const auto& [q, suffix] : {std::pair{0.5, "_p50"}, {0.99, "_p99"}}) {
    const Quantile p = Percentile(samples, q);
    // An unsupported percentile keeps its value for the result file but
    // reports 0 samples, which the table prints as not available.
    report->Layer(prefix + suffix, p.value, unit, p.supported ? p.samples : 0);
  }
}

}  // namespace perfbench
