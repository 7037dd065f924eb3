// Event-driven flow-level simulation: flows arrive, share the fabric at
// max-min fair rates, and depart when their bytes drain. Rates are
// recomputed at every arrival/departure (the standard fluid FCT model) by
// one reused MaxMinProblem over the active flows, on the shared resource
// layout.
// Orders of magnitude faster than the packet simulator at the cost of
// abstracting away queues, RTTs, and loss — tests/flowsim cross-validate
// it against packet-level TCP on shared-bottleneck scenarios.
//
// Use it for quick what-if sweeps; use sim/ for anything where transport
// dynamics matter (tails, incast, DCTCP).
#pragma once

#include <cstdint>
#include <vector>

#include "flowsim/maxmin.h"
#include "flowsim/resources.h"
#include "util/stats.h"
#include "util/units.h"

namespace spineless::flowsim {

class FlowLevelSimulator {
 public:
  struct FlowResult {
    HostId src = 0;
    HostId dst = 0;
    std::int64_t bytes = 0;
    Time start = 0;
    Time finish = -1;
    bool completed() const noexcept { return finish >= 0; }
    Time fct() const noexcept { return finish - start; }
  };

  FlowLevelSimulator(const Graph& g, double link_rate_bps);

  // Adds a finite flow routed along `path` (ToR(src) .. ToR(dst)).
  int add_flow(HostId src, HostId dst, std::int64_t bytes, Time start,
               const Path& path);

  // Runs to completion (or `deadline`); returns flows completed.
  std::size_t run(Time deadline = 3'600 * units::kSecond);

  const std::vector<FlowResult>& results() const noexcept { return results_; }
  Summary fct_ms() const;

 private:
  struct ActiveFlow {
    std::size_t id;                // index into results_
    double remaining_bytes = 0;
    double rate = 0;
  };

  // Max-min fair rates of the active flows, refilling problem_.
  void recompute_rates(std::vector<ActiveFlow>& active);

  ResourceLayout layout_;
  MaxMinProblem problem_;  // over layout_'s resources, reused by every solve
  std::vector<FlowResult> results_;
  std::vector<std::vector<int>> resources_;  // per flow
};

}  // namespace spineless::flowsim
