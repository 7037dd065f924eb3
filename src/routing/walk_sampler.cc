#include "routing/walk_sampler.h"

#include "topo/analysis.h"
#include "util/error.h"

namespace spineless::routing {

Path WalkSampler::sample(NodeId src, NodeId dst, Rng& rng) {
  const std::vector<int>& dist = dist_to(dst);
  if (dist[static_cast<std::size_t>(src)] < 0) return {};
  Path path{src};
  NodeId cur = src;
  while (cur != dst) {
    const int d = dist[static_cast<std::size_t>(cur)];
    scratch_.clear();
    for (const Port& p : g_.neighbors(cur)) {
      if (link_dead(p.link)) continue;
      if (p.neighbor != dst && switch_excluded(p.neighbor)) continue;
      if (dist[static_cast<std::size_t>(p.neighbor)] == d - 1)
        scratch_.push_back(p.neighbor);
    }
    // Every distance was assigned from a switch the search could cross, so
    // one always steps closer; an empty set is a broken distance array.
    SPINELESS_CHECK_MSG(!scratch_.empty(),
                        "walk from " << src << " to " << dst
                                     << " has no next hop at " << cur);
    cur = scratch_[rng.uniform(scratch_.size())];
    path.push_back(cur);
  }
  return path;
}

const std::vector<int>& WalkSampler::dist_to(NodeId dst) {
  for (const auto& e : cache_) {
    if (e.first == dst) return e.second;
  }
  // Excluded switches get a distance (a walk may start at one) but the
  // search never crosses them; the destination itself is always crossed.
  // Without an exclusion the plain search runs: no per-port test.
  const char* excluded =
      ex_.switches != nullptr ? ex_.switches->data() : nullptr;
  const char* dead = ex_.links != nullptr ? ex_.links->data() : nullptr;
  std::vector<int> dist =
      excluded == nullptr && dead == nullptr
          ? topo::bfs_distances(g_, dst)
          : topo::bfs_distances(g_, dst, [=](NodeId u, const Port& p) {
              return (dead != nullptr && dead[p.link] != 0) ||
                     (excluded != nullptr && u != dst && excluded[u] != 0);
            });
  if (cache_.size() >= kMaxCached) cache_.erase(cache_.begin());
  cache_.emplace_back(dst, std::move(dist));
  return cache_.back().second;
}

}  // namespace spineless::routing
