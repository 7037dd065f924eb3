#include "flowsim/fluid_network.h"

#include <numeric>

#include "util/error.h"

namespace spineless::flowsim {

FluidNetwork::FluidNetwork(const Graph& g, double link_rate_bps)
    : layout_(g), problem_(layout_.capacities(link_rate_bps, link_rate_bps)) {}

int FluidNetwork::add_flow(HostId src, HostId dst, const Path& path) {
  SPINELESS_CHECK(src != dst);
  return problem_.add_flow(layout_.flow(src, dst, path));
}

double FluidNetwork::total(const std::vector<double>& rates) {
  return std::accumulate(rates.begin(), rates.end(), 0.0);
}

double FluidNetwork::mean(const std::vector<double>& rates) {
  SPINELESS_CHECK(!rates.empty());
  return total(rates) / static_cast<double>(rates.size());
}

}  // namespace spineless::flowsim
