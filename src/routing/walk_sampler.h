// Shortest-path walk sampler: BFS distances toward the destination, then a
// uniform random walk over distance-decreasing neighbours — hop-by-hop ECMP
// hashing without all-pairs next-hop tables, for graphs too large for
// EcmpTable (the flat tier's 10k-100k switches) and for re-pathing fluid
// flows around failed links.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "routing/types.h"
#include "util/rng.h"

namespace spineless::routing {

class WalkSampler {
 public:
  // What a walk may not use. `switches[n] != 0`: switch n may not be an
  // interior hop (a walk may still start or end there). `links[l] != 0`:
  // link l is dead. Either may be null. Both are read, not copied, so the
  // owner can change them in place — and must then call invalidate().
  struct Exclusion {
    const std::vector<char>* switches = nullptr;
    const std::vector<char>* links = nullptr;
  };

  explicit WalkSampler(const Graph& g) : g_(g) {}
  WalkSampler(const Graph& g, Exclusion ex) : g_(g), ex_(ex) {}

  // A shortest src -> dst path over the allowed switches and links, each
  // hop drawn uniformly from rng over the ports that step one hop closer.
  // Empty when dst is unreachable from src.
  Path sample(NodeId src, NodeId dst, Rng& rng);

  // Drops every cached distance array (call after the exclusion changed).
  void invalidate() { cache_.clear(); }

  // FIFO bound on cached distance arrays: skewed traffic concentrates
  // destinations on a few racks, and the bound caps memory at
  // kMaxCached * num_switches ints. A pure speed cache — eviction never
  // changes a sampled path.
  static constexpr std::size_t kMaxCached = 16;

 private:
  bool switch_excluded(NodeId n) const {
    return ex_.switches != nullptr &&
           (*ex_.switches)[static_cast<std::size_t>(n)] != 0;
  }
  bool link_dead(topo::LinkId l) const {
    return ex_.links != nullptr &&
           (*ex_.links)[static_cast<std::size_t>(l)] != 0;
  }
  const std::vector<int>& dist_to(NodeId dst);

  const Graph& g_;
  Exclusion ex_{};
  std::vector<std::pair<NodeId, std::vector<int>>> cache_;
  std::vector<NodeId> scratch_;
};

}  // namespace spineless::routing
