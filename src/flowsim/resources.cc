#include "flowsim/resources.h"

#include <algorithm>

#include "util/error.h"

namespace spineless::flowsim {

void ResourceLayout::append_hops(std::span<const NodeId> hops,
                                 std::vector<int>& out) const {
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const topo::LinkId l = graph_->link_between(hops[i], hops[i + 1]);
    out.push_back(link(l, graph_->link(l).a == hops[i]));
  }
}

std::vector<int> ResourceLayout::flow(HostId src, HostId dst,
                                      const Path& path) const {
  SPINELESS_CHECK(!path.empty());
  SPINELESS_CHECK_MSG(path.front() == graph_->tor_of_host(src) &&
                          path.back() == graph_->tor_of_host(dst),
                      "path endpoints do not match host ToRs");
  std::vector<int> res;
  res.reserve(path.size() + 1);
  res.push_back(host_up(src));
  append_hops(path, res);
  res.push_back(host_down(dst));
  return res;
}

std::vector<double> ResourceLayout::capacities(double host_bps,
                                               double link_bps) const {
  const auto nics = 2 * static_cast<std::size_t>(num_hosts_);
  std::vector<double> caps(
      nics + 2 * static_cast<std::size_t>(graph_->num_links()), link_bps);
  std::fill(caps.begin(), caps.begin() + static_cast<std::ptrdiff_t>(nics),
            host_bps);
  return caps;
}

}  // namespace spineless::flowsim
