// Long-running flows over a data-center topology as a MaxMinProblem, on
// the shared fluid resource layout (flowsim/resources.h): host NICs and each
// direction of every switch-switch link at the configured line rate. Flows
// follow explicit switch-level paths, the way a hashed ECMP/Shortest-Union
// flow does.
#pragma once

#include <cstdint>
#include <vector>

#include "flowsim/maxmin.h"
#include "flowsim/resources.h"

namespace spineless::flowsim {

class FluidNetwork {
 public:
  FluidNetwork(const Graph& g, double link_rate_bps);

  // Adds a long-running flow from host src to host dst along `path`, which
  // must run from tor_of(src) to tor_of(dst). Hosts on the same ToR pass an
  // intra-rack path of the single element {tor}. Returns the flow id.
  int add_flow(HostId src, HostId dst, const Path& path);

  int num_flows() const { return problem_.num_flows(); }

  // Max-min fair rate per flow, bits/sec.
  std::vector<double> solve() const { return problem_.solve(); }

  // Aggregate and mean throughput helpers.
  static double total(const std::vector<double>& rates);
  static double mean(const std::vector<double>& rates);

 private:
  ResourceLayout layout_;
  MaxMinProblem problem_;
};

}  // namespace spineless::flowsim
