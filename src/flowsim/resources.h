// The resource layout every fluid model over a data-center Graph shares.
// Host NICs (uplink and downlink) and each direction of every switch-switch
// link are max-min resources; a flow following a switch-level path crosses
// its source's uplink, one directed link per hop, and its destination's
// downlink — the way a hashed ECMP/Shortest-Union flow does.
//
//   host uplink h | host downlink H + h | directed link 2H + 2l + (a->b ? 0 : 1)
//
// with H = g.total_servers() and l a link id whose endpoints are (a, b).
#pragma once

#include <span>
#include <vector>

#include "routing/types.h"
#include "topo/graph.h"

namespace spineless::flowsim {

using routing::Path;
using topo::Graph;
using topo::HostId;
using topo::NodeId;

// A fluid flow has drained when less than one bit (an eighth of a byte)
// remains.
inline constexpr double kRemainingEps = 0.125;

class ResourceLayout {
 public:
  explicit ResourceLayout(const Graph& g)
      : graph_(&g), num_hosts_(g.total_servers()) {}

  int host_up(HostId h) const { return h; }
  int host_down(HostId h) const { return num_hosts_ + h; }
  int link(topo::LinkId l, bool a_to_b) const {
    return 2 * num_hosts_ + 2 * l + (a_to_b ? 0 : 1);
  }

  // Appends the directed link of every hop of the switch sequence `hops`
  // (Graph::link_between picks among parallel links). Fewer than two
  // switches append nothing.
  void append_hops(std::span<const NodeId> hops, std::vector<int>& out) const;

  // Every resource of a flow from host src to host dst along `path`, which
  // must run from tor_of(src) to tor_of(dst) (a single {tor} when both hosts
  // share a rack).
  std::vector<int> flow(HostId src, HostId dst, const Path& path) const;

  // One capacity per resource: host NICs at host_bps, links at link_bps.
  std::vector<double> capacities(double host_bps, double link_bps) const;

 private:
  const Graph* graph_;
  int num_hosts_;
};

}  // namespace spineless::flowsim
