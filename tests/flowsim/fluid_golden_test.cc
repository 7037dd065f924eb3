// Golden identity for the fluid FCT model: FNV-1a digests of the flow
// completion times of a FB-skewed DRing cell (core::run_fct_experiment_fluid)
// and of a FlowLevelSimulator run with hundreds of overlapping flows. The
// digests pin every bit of every FCT, so a change to the water-filling
// arithmetic or to the order in which flows freeze fails here even when the
// FCT distribution looks the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/fct_experiment.h"
#include "core/scenario.h"
#include "core/throughput_experiment.h"
#include "flowsim/flow_level_sim.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "workload/flows.h"
#include "workload/tm.h"

namespace spineless::flowsim {
namespace {

class Fnv {
 public:
  Fnv& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Fnv& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t sorted_digest(std::size_t flows, std::size_t completed,
                            std::vector<double> fct_ms) {
  std::sort(fct_ms.begin(), fct_ms.end());
  Fnv f;
  f.u64(flows).u64(completed);
  for (const double x : fct_ms) f.f64(x);
  return f.value();
}

TEST(FluidGolden, FbSkewedDringCellMatchesRecordedDigest) {
  const core::Scenario sc = core::Scenario::small();
  const topo::Graph g = sc.dring().graph;
  const auto tm = workload::RackTm::fb_like_skewed(g, 11);
  core::FctConfig cfg;
  cfg.net.mode = sim::RoutingMode::kShortestUnion;
  cfg.flowgen.window = 500 * units::kMicrosecond;
  cfg.flowgen.offered_load_bps =
      workload::spine_offered_load_bps(sc.x, sc.y, 10e9, 0.3) *
      workload::participating_fraction(g, tm);
  cfg.seed = 1100;
  const core::FctResult r = core::run_fct_experiment_fluid(g, tm, cfg);
  EXPECT_GT(r.flows, 300u);
  EXPECT_EQ(sorted_digest(r.flows, r.completed, r.fct_ms.samples()),
            17515705992304230056ULL);
}

TEST(FluidGolden, OverlappingFlowsMatchRecordedDigest) {
  // 400 flows of 20 KB..2 MB arriving within 200 us on a 32-switch DRing:
  // dozens are active at once, share links in many combinations, and
  // freeze in multi-flow rounds.
  const topo::Graph g = topo::make_dring(8, 4, 4).graph;
  core::PathSampler paths(g, sim::RoutingMode::kEcmp, 2);
  FlowLevelSimulator sim(g, 10e9);
  Rng rng(0x90dde7ULL);
  const auto hosts = static_cast<std::uint64_t>(g.total_servers());
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    auto dst = static_cast<topo::HostId>(rng.uniform(hosts));
    if (dst == src) dst = static_cast<topo::HostId>((dst + 1) % hosts);
    const auto bytes =
        static_cast<std::int64_t>(20'000 + rng.uniform(1'980'000));
    const auto start =
        static_cast<Time>(rng.uniform(200 * units::kMicrosecond));
    sim.add_flow(src, dst, bytes, start,
                 paths.sample(g.tor_of_host(src), g.tor_of_host(dst), rng));
  }
  const std::size_t completed = sim.run();
  EXPECT_EQ(completed, 400u);
  Fnv f;
  f.u64(completed);
  for (const auto& r : sim.results()) f.u64(static_cast<std::uint64_t>(r.finish));
  EXPECT_EQ(f.value(), 16474215018667438607ULL);
  EXPECT_EQ(sorted_digest(sim.results().size(), completed,
                          sim.fct_ms().samples()),
            6501076246908889976ULL);
}

}  // namespace
}  // namespace spineless::flowsim
