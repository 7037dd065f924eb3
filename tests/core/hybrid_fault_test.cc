// Whole-network fault tolerance for the hybrid engine
// (core/hybrid_experiment + core/hybrid_fault.h): a FaultPlan spanning
// region-internal, cut, and external links must produce
//  * determinism — byte-identical result hashes AND string-equal unified
//    fault reports across --intra_jobs {1,2,4,7} and forced reactor threads,
//  * crash safety — kill + --resume from a snapshot taken mid-outage (link
//    down, tables already repaired) matches an uninterrupted run exactly,
//  * severed regions — failing every cut link demotes boundary flows to
//    stalled fluid with honest stall/blackhole accounting,
//  * cross-half agreement — the fluid outage model's nominal detection +
//    repair times match what packet BFD measures for the same plan when the
//    region covers the whole graph,
//  * version skew — a pre-PR-8 (version-forged) HYBR section is rejected
//    with an error naming the section and both versions,
//  * flat-tier golden identity — faulted DRing cells of 1000 and 4120
//    switches keep their recorded result hashes, and re-path walks that end
//    at a hot ToR complete.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/hybrid_experiment.h"
#include "sim/checkpoint.h"
#include "sim/snapshot.h"
#include "topo/builders.h"
#include "topo/region.h"
#include "util/fsio.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "workload/flows.h"
#include "workload/tm.h"

namespace spineless::core {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "spineless_hybrid_fault_" + name;
}

// `key` of the first outage in a unified fault report, packet half first:
// enough to pull one timing field out of a plan whose failed links all sit
// on one side of the cut.
std::int64_t first_outage(const std::string& report, const std::string& key) {
  const JsonValue doc = parse_json(report);
  for (const char* half : {"packet", "fluid"}) {
    const JsonValue* side = doc.find(half);
    const JsonValue* outages = side ? side->find("outages") : nullptr;
    if (outages != nullptr && !outages->as_array().empty())
      return outages->as_array()[0].find(key)->as_int();
  }
  ADD_FAILURE() << "no outage in fault report " << report;
  return -1;
}

// The hybrid_test small cell (6x2 DRing, supernodes {0,1} hot) plus a
// whole-network fault schedule. Link classes are picked from the cut:
// cut.cut[0] is the boundary link; the internal/external picks scan for
// the lowest link id of each class.
struct Cell {
  topo::DRing d = topo::make_dring(6, 2, 2);
  topo::RegionCut cut;
  topo::LinkId internal_link = topo::kInvalidLink;
  topo::LinkId cut_link = topo::kInvalidLink;
  topo::LinkId external_link = topo::kInvalidLink;

  Cell() {
    cut = topo::region_from_supernodes(d.graph, d.supernode_of, {0, 1});
    cut_link = cut.cut[0].link;
    for (topo::LinkId l = 0; l < d.graph.num_links(); ++l) {
      const auto& lk = d.graph.link(l);
      const bool a_hot = cut.contains(lk.a);
      const bool b_hot = cut.contains(lk.b);
      if (a_hot && b_hot && internal_link == topo::kInvalidLink)
        internal_link = l;
      if (!a_hot && !b_hot && external_link == topo::kInvalidLink)
        external_link = l;
    }
  }
};

HybridConfig fault_cfg(int intra, const std::string& fault_spec,
                       int reactor_threads = 0) {
  HybridConfig cfg;
  cfg.fct.seed = 7;
  cfg.fct.net.intra_jobs = intra;
  cfg.fct.net.reactor_threads = reactor_threads;
  cfg.fct.flowgen.offered_load_bps =
      workload::spine_offered_load_bps(6, 2, 10e9, /*utilization=*/0.3);
  cfg.fct.flowgen.window = units::kMillisecond;
  cfg.fct.drain_factor = 8.0;
  cfg.region_mode = RegionMode::kSupernodes;
  cfg.region_supernodes = {0, 1};
  cfg.window = 50 * units::kMicrosecond;
  cfg.fault_spec = fault_spec;
  return cfg;
}

// One clause per link class: a region-internal flap (packet BFD), a cut
// link failure (boundary re-pin), an external failure (fluid re-path).
std::string three_way_spec(const Cell& c) {
  return "flap link=" + std::to_string(c.internal_link) +
         " down=1ms up=3ms; fail link=" + std::to_string(c.cut_link) +
         " at=1500us; fail link=" + std::to_string(c.external_link) +
         " at=2ms";
}

TEST(HybridFault, UnifiedReportSpansBothHalves) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const auto r = run_hybrid_experiment(
      c.d.graph, tm, fault_cfg(1, three_way_spec(c)), &c.d.supernode_of);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.completed, 0u);
  // Two fluid-side outages (cut + external), each permanent.
  EXPECT_EQ(r.fluid_outages, 2u);
  EXPECT_GT(r.fluid_blackhole_seconds, 0.0);
  // The packet half detected the internal flap.
  ASSERT_FALSE(r.fault_report.empty());
  EXPECT_NE(r.fault_report.find("\"packet\":"), std::string::npos);
  EXPECT_NE(r.fault_report.find("\"fluid\":"), std::string::npos);
  EXPECT_NE(r.fault_report.find("\"boundary\":"), std::string::npos);
  EXPECT_NE(r.fault_report.find("\"goodput_recovery\":"), std::string::npos);
  // Packet outages are reported with FULL-graph link ids: the internal
  // link's id appears even though the injector saw a renumbered region id.
  EXPECT_NE(
      r.fault_report.find("\"link\":" + std::to_string(c.internal_link)),
      std::string::npos)
      << r.fault_report;
  const JsonValue report = parse_json(r.fault_report);
  ASSERT_NE(report.find("packet"), nullptr);
  const JsonValue* blackhole = report.find("packet")->find("blackhole_seconds");
  ASSERT_NE(blackhole, nullptr);
  EXPECT_GE(blackhole->as_number(), 0.0);
}

// The unified report of a cell whose region (supernodes {3, 4}) renumbers
// its links, with a packet-half outage and gray window on remapped ids,
// pinned by a digest recorded when the hybrid still wrote the packet block
// with its own copy of the injector's JSON writer.
TEST(HybridFault, UnifiedReportMatchesRecordedDigest) {
  const topo::DRing d = topo::make_dring(6, 2, 2);
  const topo::RegionCut cut =
      topo::region_from_supernodes(d.graph, d.supernode_of, {3, 4});
  std::vector<topo::LinkId> internal;
  topo::LinkId external = topo::kInvalidLink;
  for (topo::LinkId l = 0; l < d.graph.num_links(); ++l) {
    const bool a_hot = cut.contains(d.graph.link(l).a);
    const bool b_hot = cut.contains(d.graph.link(l).b);
    if (a_hot && b_hot) internal.push_back(l);
    if (!a_hot && !b_hot && external == topo::kInvalidLink) external = l;
  }
  const std::string spec =
      "flap link=" + std::to_string(internal.front()) +
      " down=1ms up=3ms; gray link=" + std::to_string(internal.back()) +
      " drop=0.02 from=500us until=2500us; fail link=" +
      std::to_string(cut.cut[0].link) + " at=1500us; fail link=" +
      std::to_string(external) + " at=2ms";
  ASSERT_EQ(spec,
            "flap link=36 down=1ms up=3ms; gray link=39 drop=0.02 from=500us "
            "until=2500us; fail link=8 at=1500us; fail link=0 at=2ms");
  HybridConfig cfg = fault_cfg(1, spec);
  cfg.region_supernodes = {3, 4};
  const auto r = run_hybrid_experiment(
      d.graph, workload::RackTm::uniform(d.graph), cfg, &d.supernode_of);
  EXPECT_EQ(r.fault_report.size(), 683u);
  EXPECT_EQ(util::fnv1a(r.fault_report), 13679163855662213995ULL)
      << r.fault_report;
}

TEST(HybridFault, ReportAndHashByteIdenticalAcrossIntraJobs) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const auto base = run_hybrid_experiment(
      c.d.graph, tm, fault_cfg(1, three_way_spec(c)), &c.d.supernode_of);
  ASSERT_FALSE(base.fault_report.empty());
  for (const int intra : {2, 4, 7}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const auto r = run_hybrid_experiment(
        c.d.graph, tm, fault_cfg(intra, three_way_spec(c)),
        &c.d.supernode_of);
    EXPECT_EQ(base.result_hash, r.result_hash);
    EXPECT_EQ(base.fault_report, r.fault_report);
  }
}

TEST(HybridFault, ReportAndHashByteIdenticalWithForcedReactorThreads) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const auto base = run_hybrid_experiment(
      c.d.graph, tm, fault_cfg(1, three_way_spec(c)), &c.d.supernode_of);
  const auto r = run_hybrid_experiment(
      c.d.graph, tm,
      fault_cfg(4, three_way_spec(c), /*reactor_threads=*/4),
      &c.d.supernode_of);
  EXPECT_EQ(base.result_hash, r.result_hash);
  EXPECT_EQ(base.fault_report, r.fault_report);
}

TEST(HybridFault, KillAndResumeMidOutageByteIdentical) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const std::string spec = three_way_spec(c);
  const auto base =
      run_hybrid_experiment(c.d.graph, tm, fault_cfg(1, spec),
                            &c.d.supernode_of);
  for (const int intra : {1, 2}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const std::string path = tmp_path("resume" + std::to_string(intra));
    util::remove_file(path);

    // Cancel ~2ms in: the internal link is down and routed out, the cut
    // link's boundary flows are mid-re-pin, and the external failure is
    // about to land — the hairiest instant to snapshot.
    auto cfg = fault_cfg(intra, spec);
    cfg.fct.checkpoint.path = path;
    int windows = 0;
    cfg.fct.checkpoint.cancel = [&windows] { return ++windows >= 40; };
    const auto cancelled =
        run_hybrid_experiment(c.d.graph, tm, cfg, &c.d.supernode_of);
    EXPECT_FALSE(cancelled.finished);
    ASSERT_TRUE(util::file_exists(path));

    auto cfg2 = fault_cfg(intra, spec);
    cfg2.fct.checkpoint.path = path;
    cfg2.fct.checkpoint.resume = true;
    const auto resumed =
        run_hybrid_experiment(c.d.graph, tm, cfg2, &c.d.supernode_of);
    EXPECT_TRUE(resumed.finished);
    EXPECT_EQ(base.result_hash, resumed.result_hash);
    EXPECT_EQ(base.fault_report, resumed.fault_report);
    util::remove_file(path);
  }
}

// Fail every cut link: the region is severed, and every boundary flow that
// had not finished must be demoted to stalled fluid — recorded re-pins with
// to_cut = -1, nonzero stall time, and no silent completions.
TEST(HybridFault, SeveredRegionStallsBoundaryFlows) {
  const Cell c;
  std::string spec;
  for (const auto& cl : c.cut.cut) {
    if (!spec.empty()) spec += "; ";
    spec += "fail link=" + std::to_string(cl.link) + " at=500us";
  }
  // Hand-built boundary flows: hot-src -> cold-dst, big enough that none
  // can finish before the 500us failure + ~800us detection/repair settle.
  std::vector<workload::FlowSpec> specs;
  const topo::NodeId hot_tor = c.cut.hot[0];
  topo::NodeId cold_tor = topo::kInvalidNode;
  for (topo::NodeId n = c.d.graph.num_switches(); n-- > 0;) {
    if (!c.cut.contains(n) && c.d.graph.servers(n) > 0) {
      cold_tor = n;
      break;
    }
  }
  ASSERT_NE(cold_tor, topo::kInvalidNode);
  for (int i = 0; i < 4; ++i) {
    specs.push_back(workload::FlowSpec{
        static_cast<topo::HostId>(c.d.graph.first_host_of(hot_tor) +
                                  i % c.d.graph.servers(hot_tor)),
        static_cast<topo::HostId>(c.d.graph.first_host_of(cold_tor) +
                                  i % c.d.graph.servers(cold_tor)),
        5'000'000, 0});
  }
  auto cfg = fault_cfg(1, spec);
  const auto r =
      run_hybrid_experiment_flows(c.d.graph, specs, cfg, &c.d.supernode_of);
  EXPECT_EQ(r.boundary_flows, specs.size());
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.stalled_flows, specs.size());
  EXPECT_GT(r.stalled_seconds, 0.0);
  EXPECT_GT(r.boundary_repins, 0u);
  EXPECT_GT(r.fluid_blackhole_seconds, 0.0);
  EXPECT_NE(r.fault_report.find("\"to_cut\":-1"), std::string::npos)
      << r.fault_report;
}

// The fluid outage model's nominal routed-out instant is t_down +
// hold_count * hello_interval + repair_delay exactly; a permanent external
// failure must therefore report precisely that much blackhole time.
TEST(HybridFault, FluidBlackholeMatchesBfdTiming) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const auto cfg = fault_cfg(
      1, "fail link=" + std::to_string(c.external_link) + " at=1ms");
  const auto r =
      run_hybrid_experiment(c.d.graph, tm, cfg, &c.d.supernode_of);
  ASSERT_EQ(r.fluid_outages, 1u);
  const Time hold =
      static_cast<Time>(cfg.fault.hold_count) * cfg.fault.hello_interval;
  EXPECT_NEAR(r.fluid_blackhole_seconds,
              units::to_seconds(hold + cfg.fault.repair_delay), 1e-12);
  EXPECT_EQ(first_outage(r.fault_report, "t_routed_out"),
            units::kMillisecond + hold + cfg.fault.repair_delay);
}

// A restored external flap: flows re-path around the outage and re-converge
// once the link returns, so post-repair goodput recovers most of the
// pre-fault peak (check.sh pins the >= 0.95 bound on its smoke scenario).
TEST(HybridFault, GoodputRecoversAfterExternalFlap) {
  const Cell c;
  // Long-lived flows so traffic spans the whole fault cycle: the peak
  // post-repair goodput must climb back toward the pre-fault peak.
  std::vector<workload::FlowSpec> specs;
  const auto hosts = c.d.graph.total_servers();
  for (int i = 0; i < 8; ++i) {
    const auto src = static_cast<topo::HostId>((i * 3 + 1) % hosts);
    auto dst = static_cast<topo::HostId>((i * 7 + 5) % hosts);
    if (dst == src) dst = static_cast<topo::HostId>((dst + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, 6'000'000, 0});
  }
  auto cfg = fault_cfg(1, "flap link=" + std::to_string(c.external_link) +
                              " down=1ms up=2ms");
  cfg.fct.drain_factor = 40.0;
  const auto r =
      run_hybrid_experiment_flows(c.d.graph, specs, cfg, &c.d.supernode_of);
  EXPECT_EQ(r.fluid_outages, 1u);
  EXPECT_EQ(r.completed, specs.size());
  EXPECT_GT(r.goodput_recovery, 0.5);
  // Restored cycle: both routed-out and routed-in are recorded.
  EXPECT_GT(first_outage(r.fault_report, "t_routed_in"), 0);
}

// Whole-graph hot set: the identical plan runs entirely through packet BFD.
// The fluid model's nominal timing must agree with what BFD measures to
// within the hello quantization (detection waits for the hold to expire
// from the LAST hello, so the measured instant may lag the nominal one by
// up to one interval plus queueing).
TEST(HybridFault, FluidOutageTimingAgreesWithPacketBfd) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const std::string spec =
      "flap link=" + std::to_string(c.external_link) + " down=1ms up=3ms";

  const auto fluid_run = run_hybrid_experiment(
      c.d.graph, tm, fault_cfg(1, spec), &c.d.supernode_of);
  ASSERT_EQ(fluid_run.fluid_outages, 1u);

  auto whole = fault_cfg(1, spec);
  whole.region_mode = RegionMode::kSwitches;
  whole.region_supernodes.clear();
  for (topo::NodeId n = 0; n < c.d.graph.num_switches(); ++n)
    whole.region_switches.push_back(n);
  const auto packet_run = run_hybrid_experiment(c.d.graph, tm, whole);
  EXPECT_EQ(packet_run.fluid_outages, 0u);
  ASSERT_NE(packet_run.fault_report.find("\"t_routed_out\":"),
            std::string::npos);

  const std::int64_t fluid_out =
      first_outage(fluid_run.fault_report, "t_routed_out");
  const std::int64_t packet_out =
      first_outage(packet_run.fault_report, "t_routed_out");
  const std::int64_t fluid_in =
      first_outage(fluid_run.fault_report, "t_routed_in");
  const std::int64_t packet_in =
      first_outage(packet_run.fault_report, "t_routed_in");
  const auto tol =
      static_cast<std::int64_t>(2 * fault_cfg(1, spec).fault.hello_interval);
  EXPECT_GE(packet_out, fluid_out - tol);
  EXPECT_LE(packet_out, fluid_out + tol);
  EXPECT_GE(packet_in, fluid_in - tol);
  EXPECT_LE(packet_in, fluid_in + tol);
}

// Snapshot version skew: a HYBR payload whose leading version word was
// written by a different build (or predates versioning entirely) must be
// rejected with an error naming the section and both versions — not
// misparsed into silent corruption.
TEST(HybridFault, SnapshotVersionSkewRejected) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  const std::string path = tmp_path("version_skew");
  util::remove_file(path);
  auto cfg = fault_cfg(1, three_way_spec(c));
  cfg.fct.checkpoint.path = path;
  int windows = 0;
  cfg.fct.checkpoint.cancel = [&windows] { return ++windows >= 40; };
  ASSERT_FALSE(run_hybrid_experiment(c.d.graph, tm, cfg, &c.d.supernode_of)
                   .finished);
  std::string pristine;
  ASSERT_TRUE(util::read_file(path, &pristine));

  const auto resume = [&] {
    auto cfg2 = fault_cfg(1, three_way_spec(c));
    cfg2.fct.checkpoint.path = path;
    cfg2.fct.checkpoint.resume = true;
    return run_hybrid_experiment(c.d.graph, tm, cfg2, &c.d.supernode_of);
  };

  // Forward-compat negative test: forge "version 1" (a pre-PR-8 layout).
  sim::snapshot_patch_u64(
      path, sim::kSectionHybrid, 0,
      (static_cast<std::uint64_t>(sim::kSectionHybrid) << 32) | 1u);
  try {
    resume();
    FAIL() << "restore accepted a version-1 HYBR section";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HYBR"), std::string::npos) << what;
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 2"), std::string::npos) << what;
  }

  // A payload with no version word at all (pre-versioning build).
  ASSERT_TRUE(util::atomic_write_file(path, pristine));
  sim::snapshot_patch_u64(path, sim::kSectionHybrid, 0, 7);
  try {
    resume();
    FAIL() << "restore accepted an unversioned HYBR section";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HYBR"), std::string::npos) << what;
    EXPECT_NE(what.find("predates"), std::string::npos) << what;
  }
  util::remove_file(path);
}

// Fault-free configs must hash independently of the (inert) fault timing
// knobs, so pre-fault snapshots stay loadable and fault-free sweeps keep
// their journal identity across this feature's introduction.
TEST(HybridFault, FaultFreeConfigHashIgnoresFaultKnobs) {
  const Cell c;
  std::vector<workload::FlowSpec> specs{
      workload::FlowSpec{0, 5, 1'000'000, 0}};
  HybridConfig a = fault_cfg(1, "");
  HybridConfig b = fault_cfg(1, "");
  b.fault.hello_interval *= 2;
  b.fault.hold_count += 1;
  b.fault.repair_delay *= 3;
  EXPECT_EQ(hybrid_config_hash(c.d.graph, specs, a),
            hybrid_config_hash(c.d.graph, specs, b));
  // ...but armed configs must not collide across different schedules.
  HybridConfig f1 = fault_cfg(1, "fail link=0 at=1ms");
  HybridConfig f2 = fault_cfg(1, "fail link=1 at=1ms");
  EXPECT_NE(hybrid_config_hash(c.d.graph, specs, f1),
            hybrid_config_hash(c.d.graph, specs, f2));
}

// Invalid fault timing must be rejected at arm time through
// FaultInjectorConfig::validate — the same path the packet injector takes.
TEST(HybridFault, InvalidFaultConfigRejected) {
  const Cell c;
  const auto tm = workload::RackTm::uniform(c.d.graph);
  auto cfg = fault_cfg(1, "fail link=0 at=1ms");
  cfg.fault.repair_delay = 0;  // below the network link delay
  EXPECT_THROW(
      run_hybrid_experiment(c.d.graph, tm, cfg, &c.d.supernode_of), Error);
}

// The flat-tier faulted DRing cell (make_dring(m, 4, 2, 18), 1% of links
// failed permanently from t=1ms, 512 flows into the first 8 ToRs plus 256
// uniform ones of 250 KB, Shortest-Union(2), an automatic 8-switch region)
// at flow/fault seed `seed`.
HybridResult flat_dring_cell(int m, std::uint64_t seed) {
  const topo::Graph g = topo::make_dring(m, 4, 2, 18).graph;
  const Time window = 2 * units::kMillisecond;
  Rng rng(splitmix64(seed ^ 0x726e675fULL));
  std::vector<topo::HostId> hot;
  for (topo::NodeId t = 0; t < 8; ++t)
    for (int s = 0; s < g.servers(t); ++s) hot.push_back(g.first_host_of(t) + s);
  const auto hosts = static_cast<std::uint64_t>(g.total_servers());
  const auto start = [&] {
    return static_cast<Time>(rng.uniform(static_cast<std::uint64_t>(window)));
  };
  std::vector<workload::FlowSpec> specs;
  for (int i = 0; i < 512; ++i) {
    const auto dst = hot[rng.uniform(hot.size())];
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    if (src == dst) src = static_cast<topo::HostId>((src + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, 250'000, start()});
  }
  for (int i = 0; i < 256; ++i) {
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    auto dst = static_cast<topo::HostId>(rng.uniform(hosts));
    if (dst == src) dst = static_cast<topo::HostId>((dst + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, 250'000, start()});
  }
  Rng frng(splitmix64(seed ^ 0xFA175EEDULL));
  std::vector<char> picked(static_cast<std::size_t>(g.num_links()), 0);
  std::string spec;
  const int failed = g.num_links() / 100;
  for (int chosen = 0; chosen < failed;) {
    const auto l = static_cast<std::size_t>(
        frng.uniform(static_cast<std::uint64_t>(g.num_links())));
    if (picked[l]) continue;
    picked[l] = 1;
    if (!spec.empty()) spec += "; ";
    spec += "fail link=" + std::to_string(l) +
            " at=" + std::to_string(1000 + 10 * chosen) + "us";
    ++chosen;
  }
  HybridConfig cfg;
  cfg.fct.seed = seed;
  cfg.fct.flowgen.window = window;
  cfg.fct.drain_factor = 20.0;
  cfg.fct.net.mode = sim::RoutingMode::kShortestUnion;
  cfg.region_mode = RegionMode::kAuto;
  cfg.auto_region_switches = 8;
  cfg.fault_spec = spec;
  return run_hybrid_experiment_flows(g, specs, cfg);
}

// Golden identity of the flat tier: one 1000-switch cell, whose full-graph
// paths come from the ECMP/Shortest-Union tables, and one 4120-switch cell,
// whose paths come from the shortest-path walk sampler. Both re-path fluid
// flows around failed links with the fault-aware walk.
TEST(HybridFlatGolden, TableSampledFaultedDringMatchesRecordedHash) {
  const HybridResult r = flat_dring_cell(250, 3);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.result_hash, 16377666166262429848ULL);
}

TEST(HybridFlatGolden, WalkSampledFaultedDringMatchesRecordedHash) {
  const HybridResult r = flat_dring_cell(1030, 3);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.result_hash, 1864695562422532429ULL);
}

// A boundary flow whose sampled path re-enters the hot region after leaving
// it has a gateway exit and a hot destination ToR. When a failed link re-paths
// it, the walk from the exit gateway must be allowed to end at that hot ToR;
// refusing it as a next hop once left the walk with no candidate at all.
TEST(HybridFlatGolden, RepathWalkMayEndAtAHotSwitch) {
  for (const std::uint64_t seed : {11, 13}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const HybridResult r = flat_dring_cell(250, seed);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.flows, 768u);
    EXPECT_GT(r.completed, 0u);
  }
}

}  // namespace
}  // namespace spineless::core
