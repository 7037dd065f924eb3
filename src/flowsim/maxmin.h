// Max-min fair rate allocation by progressive filling — the fluid model of
// long-running TCP flows. Used for the paper's Figure 5 C-S throughput
// heatmaps, where packet-simulating all 256 heatmap cells would be
// prohibitive (§5.2: "all flows were long-running").
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace spineless::flowsim {

// Generic resource-constrained max-min problem: each flow consumes unit
// rate on every resource it crosses; solve() returns the max-min fair rate
// vector (progressive filling / water-filling). A caller that solves
// repeatedly over one network keeps one problem: clear_flows() and
// set_capacity() refill it without copying or revalidating every capacity.
class MaxMinProblem {
 public:
  // Capacities must be >= 0 and not NaN (throws spineless::Error).
  explicit MaxMinProblem(std::vector<double> capacities);

  // Adds a flow crossing the given resources (duplicates allowed — a flow
  // crossing a resource twice consumes twice the rate there). Returns the
  // flow id.
  int add_flow(std::span<const int> resources);
  int add_flow(std::initializer_list<int> resources) {
    return add_flow(std::span<const int>(resources.begin(), resources.size()));
  }

  // Drops every flow; capacities stay. Flow ids restart at 0.
  void clear_flows();

  // Sets resource r's capacity, validated like the constructor's (and r
  // must be in range).
  void set_capacity(int r, double capacity);

  int num_flows() const { return static_cast<int>(offsets_.size()) - 1; }
  int num_resources() const { return static_cast<int>(capacity_.size()); }

  // Max-min fair rates, one per flow. A flow crossing no resources is
  // unconstrained (+infinity is not meaningful) and gets rate 0.
  std::vector<double> solve() const;

  // Max-min fair rates with per-flow rate caps (the hybrid boundary layer's
  // demand limits): a flow whose fair share reaches caps[f] freezes there
  // and releases its claim on further headroom, exactly as if it crossed a
  // private resource of capacity caps[f]. Pass an empty vector for no caps
  // (solve() delegates here). Infinite entries mean uncapped.
  //
  // Cost: all active flows share one water level, so a round costs one
  // pass over the resources active flows still cross, plus the flows that
  // freeze in it — found through per-resource flow lists and two sorted
  // cursors over the finite caps — and each flow's resources are walked
  // only when it freezes. Working memory is proportional to the resources
  // flows actually cross (plus about two bits per resource for renumbering),
  // not num_resources(): a 100k-switch network has ~10^5..10^6 resources
  // but a windowed hybrid solve touches only those on active paths.
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
  std::span<const int> flow(std::size_t f) const {
    return std::span<const int>(ids_).subspan(offsets_[f],
                                              offsets_[f + 1] - offsets_[f]);
  }

  std::vector<double> capacity_;
  // Flow f crosses ids_[offsets_[f] .. offsets_[f + 1]).
  std::vector<std::size_t> offsets_{0};
  std::vector<int> ids_;
};

}  // namespace spineless::flowsim
