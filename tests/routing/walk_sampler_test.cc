#include "routing/walk_sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "routing/paths.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::routing {
namespace {

// A ring 0-1-...-(n-1)-0.
Graph ring(int n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_link(i, (i + 1) % n);
  return g;
}

NodeId draw(const Graph& g, Rng& rng) {
  return static_cast<NodeId>(
      rng.uniform(static_cast<std::uint64_t>(g.num_switches())));
}

TEST(WalkSampler, FaultFreeSamplesAreValidShortestPaths) {
  for (const Graph& g : {topo::make_dring(12, 2, 1).graph,
                         topo::make_rrg(60, 5, 1, 4)}) {
    WalkSampler sampler(g);
    Rng rng(7);
    for (int trial = 0; trial < 300; ++trial) {
      const NodeId src = draw(g, rng);
      const NodeId dst = draw(g, rng);
      const Path p = sampler.sample(src, dst, rng);
      if (src == dst) {
        EXPECT_EQ(p, Path{src});
        continue;
      }
      EXPECT_TRUE(paths_valid(g, src, dst, {p}));
      EXPECT_EQ(path_length(p),
                topo::bfs_distances(g, dst)[static_cast<std::size_t>(src)]);
    }
  }
}

TEST(WalkSampler, AvoidsExcludedInteriorSwitchesAndDeadLinks) {
  const Graph g = topo::make_dring(12, 2, 1).graph;
  std::vector<char> excluded(static_cast<std::size_t>(g.num_switches()), 0);
  std::vector<char> dead(static_cast<std::size_t>(g.num_links()), 0);
  for (const NodeId n : {4, 5, 13}) excluded[static_cast<std::size_t>(n)] = 1;
  for (LinkId l = 0; l < g.num_links(); l += 7) dead[static_cast<std::size_t>(l)] = 1;

  // Reference distances: the graph without dead links and without any link
  // touching an excluded switch.
  std::vector<LinkId> removed;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const topo::Link& lk = g.link(l);
    if (dead[static_cast<std::size_t>(l)] ||
        excluded[static_cast<std::size_t>(lk.a)] ||
        excluded[static_cast<std::size_t>(lk.b)])
      removed.push_back(l);
  }
  const Graph allowed = topo::subgraph_without_links(g, removed);

  WalkSampler sampler(g, {&excluded, &dead});
  Rng rng(11);
  int sampled = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const NodeId src = draw(g, rng);
    const NodeId dst = draw(g, rng);
    if (src == dst || excluded[static_cast<std::size_t>(src)] ||
        excluded[static_cast<std::size_t>(dst)])
      continue;
    const int want =
        topo::bfs_distances(allowed, dst)[static_cast<std::size_t>(src)];
    const Path p = sampler.sample(src, dst, rng);
    if (want < 0) {
      EXPECT_TRUE(p.empty());
      continue;
    }
    ++sampled;
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(path_length(p), want);
    EXPECT_TRUE(paths_valid(allowed, src, dst, {p}));
    for (std::size_t i = 1; i + 1 < p.size(); ++i)
      EXPECT_FALSE(excluded[static_cast<std::size_t>(p[i])]) << "hop " << i;
  }
  EXPECT_GT(sampled, 200);
}

TEST(WalkSampler, ExcludedEndpointsAreAllowed) {
  const Graph g = ring(6);
  std::vector<char> excluded(6, 0);
  excluded[0] = 1;
  WalkSampler sampler(g, {&excluded, nullptr});
  Rng rng(1);
  EXPECT_EQ(sampler.sample(2, 0, rng), (Path{2, 1, 0}));  // ends at 0
  EXPECT_EQ(sampler.sample(0, 2, rng), (Path{0, 1, 2}));  // starts at 0
  // Between two allowed switches the walk goes the long way round.
  EXPECT_EQ(sampler.sample(1, 5, rng), (Path{1, 2, 3, 4, 5}));
}

TEST(WalkSampler, UnreachableDestinationReturnsEmptyPath) {
  const Graph g = ring(6);
  std::vector<char> dead(6, 0);
  dead[0] = 1;  // 0-1
  dead[3] = 1;  // 3-4
  WalkSampler sampler(g, {nullptr, &dead});
  Rng rng(1);
  EXPECT_TRUE(sampler.sample(1, 5, rng).empty());
  EXPECT_EQ(sampler.sample(1, 3, rng), (Path{1, 2, 3}));
  // Reviving a link in place takes effect after invalidate().
  dead[3] = 0;
  sampler.invalidate();
  EXPECT_EQ(sampler.sample(1, 5, rng), (Path{1, 2, 3, 4, 5}));
}

TEST(WalkSampler, SamePathAfterEvictionAndInvalidate) {
  const Graph g = topo::make_rrg(80, 6, 1, 9);
  WalkSampler sampler(g);
  const auto sample = [&](NodeId src, NodeId dst, std::uint64_t seed) {
    Rng rng(seed);
    return sampler.sample(src, dst, rng);
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Path first = sample(3, 71, seed);
    ASSERT_FALSE(first.empty());
    // More destinations than the cache holds evict 71's distance array.
    static_assert(WalkSampler::kMaxCached < 20);
    for (NodeId d = 10; d < 30; ++d) sample(0, d, seed);
    EXPECT_EQ(sample(3, 71, seed), first);
    sampler.invalidate();
    EXPECT_EQ(sample(3, 71, seed), first);
  }
}

}  // namespace
}  // namespace spineless::routing
