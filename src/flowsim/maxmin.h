// Max-min fair rate allocation by progressive filling — the fluid model of
// long-running TCP flows. Used for the paper's Figure 5 C-S throughput
// heatmaps, where packet-simulating all 256 heatmap cells would be
// prohibitive (§5.2: "all flows were long-running").
#pragma once

#include <vector>

namespace spineless::flowsim {

// Generic resource-constrained max-min problem: each flow consumes unit
// rate on every resource it crosses; solve() returns the max-min fair rate
// vector (progressive filling / water-filling).
class MaxMinProblem {
 public:
  explicit MaxMinProblem(std::vector<double> capacities);

  // Adds a flow crossing the given resources (duplicates allowed — a flow
  // crossing a resource twice consumes twice the rate there). Returns the
  // flow id.
  int add_flow(std::vector<int> resources);

  int num_flows() const { return static_cast<int>(flows_.size()); }
  int num_resources() const { return static_cast<int>(capacity_.size()); }

  // Max-min fair rates, one per flow. Flows crossing no resources get rate
  // +infinity is not meaningful; they are assigned 0 and reported via
  // unconstrained_flows().
  std::vector<double> solve() const;

  // Max-min fair rates with per-flow rate caps (the hybrid boundary layer's
  // demand limits): a flow whose fair share reaches caps[f] freezes there
  // and releases its claim on further headroom, exactly as if it crossed a
  // private resource of capacity caps[f]. Pass an empty vector for no caps
  // (solve() delegates here). Infinite entries mean uncapped. Iteration
  // cost and working memory are proportional to the resources flows
  // actually cross (plus one bit per resource), not num_resources() — a
  // 100k-switch network has ~10^5..10^6 resources but a windowed hybrid
  // solve touches only the few thousand on active paths.
  // Inputs are validated (throws spineless::Error): when non-empty, `caps`
  // must have exactly one entry per flow and every entry must be >= 0 and
  // not NaN — a silent size mismatch or NaN cap would otherwise stall the
  // filling loop or index past the cap vector.
  std::vector<double> solve_capped(const std::vector<double>& caps) const;

  // Property-test hook: verifies a rate vector is feasible and max-min fair
  // (every flow is bottlenecked at some saturated resource where it has the
  // maximal rate), within tolerance.
  bool is_max_min_fair(const std::vector<double>& rates,
                       double tol = 1e-6) const;

 private:
  std::vector<double> capacity_;
  std::vector<std::vector<int>> flows_;
};

}  // namespace spineless::flowsim
