#include "core/runner.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fct_experiment.h"
#include "topo/builders.h"
#include "workload/tm.h"

namespace spineless::core {
namespace {

TEST(Runner, MapReturnsResultsInIndexOrder) {
  Runner runner(4);
  const auto out = runner.map(100, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

// Thread counts follow the CPUs the calling thread may use, not the
// host's core count: a thread pinned to one CPU sees exactly that CPU.
TEST(Runner, UsableCoresFollowTheAffinityMask) {
  const std::vector<int> cpus = util::usable_cpus();
  ASSERT_FALSE(cpus.empty());
  EXPECT_EQ(util::usable_cores(), static_cast<int>(cpus.size()));
#if defined(__linux__)
  bool pinned = false;
  std::vector<int> seen;
  int seen_cores = 0;
  std::thread t([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpus.back()), &set);
    pinned = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
    seen = util::usable_cpus();
    seen_cores = util::usable_cores();
  });
  t.join();
  if (!pinned) GTEST_SKIP() << "thread affinity cannot be set here";
  EXPECT_EQ(seen, std::vector<int>{cpus.back()});
  EXPECT_EQ(seen_cores, 1);
  EXPECT_EQ(util::usable_cpus(), cpus);  // the caller's mask is its own
#endif
}

TEST(Runner, SingleJobRunsInline) {
  Runner runner(1);
  EXPECT_EQ(runner.jobs(), 1);
  // Serial execution visits cells strictly in order.
  std::vector<std::size_t> order;
  runner.map(10, [&](std::size_t i) {
    order.push_back(i);
    return i;
  });
  std::vector<std::size_t> want(10);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(order, want);
}

TEST(Runner, AllCellsRunExactlyOnce) {
  Runner runner(8);
  std::vector<std::atomic<int>> hits(1000);
  runner.map(hits.size(), [&](std::size_t i) { return ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, EmptyBatchIsNoOp) {
  Runner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(Runner, ReusableAcrossBatches) {
  Runner runner(3);
  for (int round = 0; round < 5; ++round) {
    const auto out =
        runner.map(17, [round](std::size_t i) { return i + 100 * round; });
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], i + 100 * static_cast<std::size_t>(round));
  }
}

TEST(Runner, BackToBackBatchStress) {
  // Regression: a straggler worker from batch k can still be spinning in
  // try_take() when batch k+1's tasks are pushed, and may run one of them
  // immediately — it must observe the new batch's body and count, never
  // the stale (nulled) state from its own batch. Many tiny batches
  // maximize the overlap window.
  Runner runner(8);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> sum{0};
    runner.map(16, [&](std::size_t i) {
      sum += static_cast<int>(i);
      return 0;
    });
    EXPECT_EQ(sum.load(), 120);
  }
}

TEST(Runner, FirstExceptionPropagates) {
  Runner runner(4);
  EXPECT_THROW(runner.map(50,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("cell 13");
                            return i;
                          }),
               std::runtime_error);
}

TEST(Runner, DeriveCellSeedIsThreadCountInvariantByConstruction) {
  // The seed depends only on (base, index) — decorrelated across indices,
  // stable across processes.
  const std::uint64_t a = derive_cell_seed(1, 0);
  const std::uint64_t b = derive_cell_seed(1, 1);
  const std::uint64_t c = derive_cell_seed(2, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, derive_cell_seed(1, 0));
}

TEST(Runner, DefaultJobsHonorsEnvironment) {
  // Cannot mutate the environment safely under the test runner, but the
  // value must at least be a positive worker count.
  EXPECT_GE(default_jobs(), 1);
}

// The tentpole guarantee: a sweep of real packet-level experiment cells
// produces identical FctResults with 1 worker and with 8, because each
// cell's randomness derives only from its index.
TEST(Runner, FctSweepIsDeterministicAcrossThreadCounts) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const workload::RackTm tm = workload::RackTm::uniform(g);

  auto run_cells = [&](int jobs) {
    Runner runner(jobs);
    return runner.map(6, [&](std::size_t i) {
      FctConfig cfg;
      cfg.flowgen.offered_load_bps = 0.2 * 12 * units::gbps(10);
      cfg.flowgen.window = 2 * units::kMillisecond;
      cfg.seed = derive_cell_seed(7, i);
      return run_fct_experiment(g, tm, cfg);
    });
  };

  const auto serial = run_cells(1);
  const auto parallel = run_cells(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].flows, parallel[i].flows) << "cell " << i;
    EXPECT_EQ(serial[i].completed, parallel[i].completed) << "cell " << i;
    EXPECT_EQ(serial[i].events, parallel[i].events) << "cell " << i;
    EXPECT_EQ(serial[i].queue_drops, parallel[i].queue_drops) << "cell " << i;
    EXPECT_EQ(serial[i].retransmits, parallel[i].retransmits) << "cell " << i;
    EXPECT_EQ(serial[i].max_queue_bytes, parallel[i].max_queue_bytes)
        << "cell " << i;
    // FCT distributions must match bit-for-bit, not within tolerance.
    EXPECT_EQ(serial[i].fct_ms.median(), parallel[i].fct_ms.median())
        << "cell " << i;
    EXPECT_EQ(serial[i].fct_ms.p99(), parallel[i].fct_ms.p99())
        << "cell " << i;
    EXPECT_EQ(serial[i].fct_ms.mean(), parallel[i].fct_ms.mean())
        << "cell " << i;
  }
}

}  // namespace
}  // namespace spineless::core
