// M1 (DESIGN.md): google-benchmark micro benchmarks for the hot paths —
// routing-table computation, path enumeration, BGP convergence, max-min
// water-filling, random-graph construction, and raw packet-simulator event
// throughput.
//
// `bench_micro --json=PATH` bypasses google-benchmark and runs the
// simulator event-throughput scenario once, writing a machine-readable
// summary (events/sec, ns/event, peak RSS) — the tier-1 smoke target and
// the number the performance roadmap tracks. `--intra_jobs=N` runs the
// same scenario on the sharded reactor engine (byte-identical event
// stream; the events/s delta is the engine's parallel overhead) and adds
// the engine's self-metrics to the JSON cell; serial output is unchanged.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ctrl/bgp.h"
#include "flowsim/maxmin.h"
#include "routing/ecmp.h"
#include "routing/paths.h"
#include "routing/vrf.h"
#include "sim/sharded_engine.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "util/json.h"
#include "util/rng.h"

namespace spineless {
namespace {

void BM_EcmpTableCompute(benchmark::State& state) {
  const auto d = topo::make_dring(static_cast<int>(state.range(0)), 4, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::EcmpTable::compute(d.graph));
  }
  state.SetLabel(std::to_string(d.graph.num_switches()) + " switches");
}
BENCHMARK(BM_EcmpTableCompute)->Arg(5)->Arg(10)->Arg(20);

void BM_VrfTableCompute(benchmark::State& state) {
  const auto d = topo::make_dring(10, 4, 8);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::VrfTable::compute(d.graph, k));
  }
}
BENCHMARK(BM_VrfTableCompute)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_ShortestUnionEnumeration(benchmark::State& state) {
  const auto d = topo::make_dring(10, 4, 8);
  const topo::Graph& g = d.graph;
  for (auto _ : state) {
    for (topo::NodeId b = 1; b < 20; ++b) {
      benchmark::DoNotOptimize(
          routing::shortest_union_paths(g, 0, b, 2, 4096));
    }
  }
}
BENCHMARK(BM_ShortestUnionEnumeration);

void BM_BgpConvergence(benchmark::State& state) {
  const auto d = topo::make_dring(static_cast<int>(state.range(0)), 2, 4);
  for (auto _ : state) {
    ctrl::BgpVrfNetwork bgp(d.graph, 2);
    benchmark::DoNotOptimize(bgp.converge());
  }
  state.SetLabel(std::to_string(d.graph.num_switches()) + " routers");
}
BENCHMARK(BM_BgpConvergence)->Arg(5)->Arg(8)->Arg(12);

// Water-filling over random routes. `uncapped` and `capped` are the
// classic small problem (500 resources, 4-hop routes); `hybrid` is shaped
// like a flat-scale hybrid window: ~400k resources (2H + 2L on a
// 20k-switch network) and ~350-hop routes. Capped cases give three flows
// in five a boundary demand cap (1, 2.5 or 5 Gb/s), the rest +inf.
struct WaterFillShape {
  int resources;
  int hops;
  bool capped;
};

void BM_MaxMinWaterFill(benchmark::State& state, WaterFillShape shape) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kDemand[] = {kInf, 1e9, kInf, 2.5e9, 5e9};
  Rng rng(1);
  flowsim::MaxMinProblem problem(
      std::vector<double>(static_cast<std::size_t>(shape.resources), 10e9));
  std::vector<double> caps;
  for (int f = 0; f < static_cast<int>(state.range(0)); ++f) {
    std::vector<int> route;
    for (int h = 0; h < shape.hops; ++h)
      route.push_back(static_cast<int>(
          rng.uniform(static_cast<std::uint64_t>(shape.resources))));
    problem.add_flow(route);
    if (shape.capped) caps.push_back(kDemand[f % 5]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.solve_capped(caps));
  }
}
BENCHMARK_CAPTURE(BM_MaxMinWaterFill, uncapped, WaterFillShape{500, 4, false})
    ->Arg(1000)
    ->Arg(5000);
BENCHMARK_CAPTURE(BM_MaxMinWaterFill, capped, WaterFillShape{500, 4, true})
    ->Arg(1000);
BENCHMARK_CAPTURE(BM_MaxMinWaterFill, hybrid,
                  WaterFillShape{400'000, 350, true})
    ->Arg(200);

// Random regular graph construction at the --scale=rng degree (16 network
// ports per switch): the set-up cost of every flat RRG cell.
void BM_MakeRrg(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::make_rrg(n, 16, 2, 35001));
  }
  state.SetLabel(std::to_string(n) + " switches");
}
BENCHMARK(BM_MakeRrg)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

// End-to-end simulator throughput: events/sec driving TCP flows across a
// DRing. The counter is the figure of merit.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    const auto d = topo::make_dring(5, 2, 4);
    sim::NetworkConfig cfg;
    sim::Network net(d.graph, cfg);
    sim::ShardedEngine engine(net);
    sim::FlowDriver driver(net, sim::TcpConfig{});
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
      const auto src = static_cast<topo::HostId>(
          rng.uniform(static_cast<std::uint64_t>(d.graph.total_servers())));
      auto dst = static_cast<topo::HostId>(
          rng.uniform(static_cast<std::uint64_t>(d.graph.total_servers())));
      if (dst == src) dst = (dst + 1) % d.graph.total_servers();
      driver.add_flow(engine.control(), src, dst, 200'000, 0);
    }
    engine.run_until(units::kSecond);
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(engine.events_processed()),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_SimulatorEventThroughput);

// The BM_SimulatorEventThroughput scenario, run outside the
// google-benchmark harness so the smoke target stays fast and emits one
// unambiguous number per metric. One warmup run primes caches and the
// allocator; the best of the timed runs is reported (the standard smoke
// convention — the minimum-interference run is the repeatable one on a
// shared machine).
int run_json_smoke(const std::string& path, int intra_jobs) {
  constexpr int kTimedRuns = 3;
  std::uint64_t events = 0;
  std::size_t completed = 0;
  double wall_s = 0;
  sim::ShardedEngine::Metrics metrics;
  for (int run = 0; run < 1 + kTimedRuns; ++run) {
    const auto d = topo::make_dring(5, 2, 4);
    sim::NetworkConfig cfg;
    cfg.intra_jobs = intra_jobs;
    sim::Network net(d.graph, cfg);
    sim::FlowDriver driver(net, sim::TcpConfig{});
    Rng rng(7);
    sim::ShardedEngine engine(net);
    for (int i = 0; i < 50; ++i) {
      const auto src = static_cast<topo::HostId>(
          rng.uniform(static_cast<std::uint64_t>(d.graph.total_servers())));
      auto dst = static_cast<topo::HostId>(
          rng.uniform(static_cast<std::uint64_t>(d.graph.total_servers())));
      if (dst == src) dst = (dst + 1) % d.graph.total_servers();
      driver.add_flow(engine.control(), src, dst, 200'000, 0);
    }

    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(units::kSecond);
    const double run_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (run == 0) continue;  // warmup
    if (wall_s == 0 || run_s < wall_s) {
      wall_s = run_s;
      events = engine.events_processed();
      completed = driver.completed_flows();
      metrics = engine.metrics();
    }
  }

  const double events_per_sec =
      wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  const double ns_per_event =
      events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);  // ru_maxrss is in KiB on Linux

  JsonWriter w;
  w.begin_object();
  w.key("bench");
  w.value("micro");
  w.key("scenario");
  w.value("simulator_event_throughput dring(5,2,4) 50 flows x 200KB, 1s");
  w.key("events");
  w.value(static_cast<std::int64_t>(events));
  w.key("wall_s");
  w.value(wall_s);
  w.key("events_per_sec");
  w.value(events_per_sec);
  w.key("ns_per_event");
  w.value(ns_per_event);
  w.key("peak_rss_kib");
  w.value(static_cast<std::int64_t>(ru.ru_maxrss));
  w.key("completed_flows");
  w.value(static_cast<std::int64_t>(completed));
  w.key("timed_runs");
  w.value(static_cast<std::int64_t>(kTimedRuns));
  if (intra_jobs > 1) {
    // Engine self-metrics (sharded runs only, so serial JSON is stable).
    w.key("intra_jobs");
    w.value(static_cast<std::int64_t>(intra_jobs));
    w.key("engine_windows");
    w.value(static_cast<std::int64_t>(metrics.windows));
    w.key("engine_ring_handoffs");
    w.value(static_cast<std::int64_t>(metrics.ring_handoffs));
    w.key("engine_max_ring_occupancy");
    w.value(static_cast<std::int64_t>(metrics.max_ring_occupancy));
    w.key("engine_spin_waits");
    w.value(static_cast<std::int64_t>(metrics.spin_waits));
    w.key("engine_central_plans");
    w.value(static_cast<std::int64_t>(metrics.central_plans));
  }
  w.end_object();
  if (!write_json_file(path, w)) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%zu events in %.3f s (%.2fM events/s, %.1f ns/event, "
              "peak RSS %ld KiB); wrote %s\n",
              static_cast<std::size_t>(events), wall_s, events_per_sec / 1e6,
              ns_per_event, static_cast<long>(ru.ru_maxrss), path.c_str());
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int intra_jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--intra_jobs=", 13) == 0)
      intra_jobs = std::atoi(argv[i] + 13);
  }
  if (json_path != nullptr)
    return spineless::run_json_smoke(json_path, intra_jobs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
