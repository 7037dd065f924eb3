#include "flowsim/maxmin.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>

#include "util/error.h"
#include "util/hash.h"
#include "util/rng.h"

namespace spineless::flowsim {
namespace {

TEST(MaxMin, SingleLinkEqualShare) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  p.add_flow({0});
  const auto r = p.solve();
  for (double v : r) EXPECT_NEAR(v, 10.0 / 3, 1e-9);
  EXPECT_TRUE(p.is_max_min_fair(r));
}

TEST(MaxMin, ClassicTwoLinkExample) {
  // Flow A crosses both links, B only link 0, C only link 1.
  // cap(0)=1, cap(1)=2: A and B split link 0 at 0.5; C gets 1.5 on link 1.
  MaxMinProblem p({1.0, 2.0});
  const int a = p.add_flow({0, 1});
  const int b = p.add_flow({0});
  const int c = p.add_flow({1});
  const auto r = p.solve();
  EXPECT_NEAR(r[static_cast<std::size_t>(a)], 0.5, 1e-9);
  EXPECT_NEAR(r[static_cast<std::size_t>(b)], 0.5, 1e-9);
  EXPECT_NEAR(r[static_cast<std::size_t>(c)], 1.5, 1e-9);
  EXPECT_TRUE(p.is_max_min_fair(r));
}

TEST(MaxMin, BottleneckChain) {
  // Three serial links, the tightest one governs.
  MaxMinProblem p({5.0, 1.0, 9.0});
  p.add_flow({0, 1, 2});
  EXPECT_NEAR(p.solve()[0], 1.0, 1e-9);
}

TEST(MaxMin, FlowCrossingResourceTwiceConsumesDouble) {
  MaxMinProblem p({2.0});
  p.add_flow({0, 0});
  EXPECT_NEAR(p.solve()[0], 1.0, 1e-9);
}

TEST(MaxMin, EmptyFlowGetsZeroAndNoCrash) {
  MaxMinProblem p({1.0});
  p.add_flow({});
  p.add_flow({0});
  const auto r = p.solve();
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_NEAR(r[1], 1.0, 1e-9);
}

TEST(MaxMin, ZeroCapacityResource) {
  MaxMinProblem p({0.0, 5.0});
  p.add_flow({0, 1});
  p.add_flow({1});
  const auto r = p.solve();
  EXPECT_NEAR(r[0], 0.0, 1e-9);
  EXPECT_NEAR(r[1], 5.0, 1e-6);
}

TEST(MaxMin, InvalidResourceRejected) {
  MaxMinProblem p({1.0});
  EXPECT_THROW(p.add_flow({1}), Error);
  EXPECT_THROW(p.add_flow({-1}), Error);
}

TEST(MaxMin, NegativeCapacityRejected) {
  EXPECT_THROW(MaxMinProblem({-1.0}), Error);
}

TEST(MaxMin, NanCapacityRejected) {
  EXPECT_THROW(MaxMinProblem({std::numeric_limits<double>::quiet_NaN()}),
               Error);
}

// solve_capped input hardening: a silent caps-size mismatch would index
// past the vector; negative or NaN caps stall the filling loop. Each is a
// structured Error up front, and +infinity remains a valid "uncapped".
TEST(MaxMin, CapsSizeMismatchRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_THROW(p.solve_capped({1.0}), Error);            // too few
  EXPECT_THROW(p.solve_capped({1.0, 1.0, 1.0}), Error);  // too many
}

TEST(MaxMin, NegativeCapRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  EXPECT_THROW(p.solve_capped({-1.0}), Error);
}

TEST(MaxMin, NanCapRejected) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  EXPECT_THROW(p.solve_capped({std::numeric_limits<double>::quiet_NaN()}),
               Error);
}

TEST(MaxMin, InfiniteCapMeansUncapped) {
  MaxMinProblem p({10.0});
  p.add_flow({0});
  p.add_flow({0});
  const auto r = p.solve_capped(
      {std::numeric_limits<double>::infinity(), 2.0});
  EXPECT_NEAR(r[1], 2.0, 1e-6);   // capped flow freezes at its cap...
  EXPECT_NEAR(r[0], 8.0, 1e-6);   // ...uncapped flow absorbs the headroom
}

// +inf caps sit beside finite and zero ones: the finite caps must bind in
// cap order while the uncapped flows keep filling (an +inf cap's freeze
// threshold, inf - 1e-9 * inf, is NaN and must never order or freeze).
TEST(MaxMin, MixedInfiniteAndFiniteCaps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MaxMinProblem p({12.0, 100.0});
  p.add_flow({0});     // uncapped
  p.add_flow({0});     // cap 1
  p.add_flow({0, 1});  // uncapped
  p.add_flow({0});     // cap 0
  p.add_flow({1});     // cap 3, on the slack resource
  p.add_flow({});      // empty, capped
  const auto r = p.solve_capped({kInf, 1.0, kInf, 0.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(r[3], 0.0);
  EXPECT_NEAR(r[1], 1.0, 1e-9);
  EXPECT_NEAR(r[4], 3.0, 1e-9);
  EXPECT_NEAR(r[0], 5.5, 1e-9);  // (12 - 1) / 2
  EXPECT_NEAR(r[2], 5.5, 1e-9);
  EXPECT_DOUBLE_EQ(r[5], 0.0);
  // All caps +inf: the same rates as no caps at all, bit for bit.
  EXPECT_EQ(p.solve_capped(std::vector<double>(6, kInf)), p.solve());
}

// A problem refilled for a second solve (clear_flows, add_flow,
// set_capacity) answers exactly as a freshly built one.
TEST(MaxMin, ReusedProblemMatchesFresh) {
  Rng rng(7);
  std::vector<double> capacity(300);
  for (double& c : capacity) c = rng.uniform_real(1.0, 10.0);
  MaxMinProblem reused(capacity);
  for (int round = 0; round < 4; ++round) {
    reused.clear_flows();
    for (int i = 0; i < 10; ++i) {
      const int r = static_cast<int>(rng.uniform(300));
      capacity[static_cast<std::size_t>(r)] = rng.uniform_real(0.0, 5.0);
      reused.set_capacity(r, capacity[static_cast<std::size_t>(r)]);
    }
    MaxMinProblem fresh(capacity);
    std::vector<double> caps;
    for (int f = 0; f < 60; ++f) {
      std::vector<int> route;
      for (int h = 0; h < 1 + f % 7; ++h)
        route.push_back(static_cast<int>(rng.uniform(300)));
      EXPECT_EQ(reused.add_flow(route), fresh.add_flow(route));
      caps.push_back(f % 3 == 0 ? rng.uniform_real(0.0, 2.0)
                                : std::numeric_limits<double>::infinity());
    }
    EXPECT_EQ(reused.num_flows(), 60);
    EXPECT_EQ(reused.solve(), fresh.solve());
    EXPECT_EQ(reused.solve_capped(caps), fresh.solve_capped(caps));
  }
}

TEST(MaxMin, SetCapacityRejectsBadInput) {
  MaxMinProblem p({1.0, 2.0});
  EXPECT_THROW(p.set_capacity(0, -1.0), Error);
  EXPECT_THROW(
      p.set_capacity(1, std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW(p.set_capacity(2, 1.0), Error);
  EXPECT_THROW(p.set_capacity(-1, 1.0), Error);
  p.add_flow({0});
  p.add_flow({1});
  p.set_capacity(1, 0.5);  // a rejected call left the problem unchanged
  EXPECT_EQ(p.solve(), (std::vector<double>{1.0, 0.5}));
}

TEST(MaxMin, CertificateRejectsUnfairAllocation) {
  MaxMinProblem p({2.0});
  p.add_flow({0});
  p.add_flow({0});
  EXPECT_FALSE(p.is_max_min_fair({0.5, 1.5}));   // unfair split
  EXPECT_FALSE(p.is_max_min_fair({1.5, 1.5}));   // infeasible
  EXPECT_FALSE(p.is_max_min_fair({0.5, 0.5}));   // link not saturated
  EXPECT_TRUE(p.is_max_min_fair({1.0, 1.0}));
}

// Property test: random problems always produce feasible max-min fair
// allocations, and total throughput never exceeds total capacity.
class MaxMinRandom : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinRandom, SolveSatisfiesCertificate) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int resources = 3 + static_cast<int>(rng.uniform(20));
  std::vector<double> caps;
  double total_cap = 0;
  for (int r = 0; r < resources; ++r) {
    caps.push_back(1.0 + rng.uniform_real() * 9.0);
    total_cap += caps.back();
  }
  MaxMinProblem p(caps);
  const int flows = 1 + static_cast<int>(rng.uniform(60));
  for (int f = 0; f < flows; ++f) {
    const int len = 1 + static_cast<int>(rng.uniform(4));
    std::vector<int> route;
    for (int i = 0; i < len; ++i)
      route.push_back(static_cast<int>(rng.uniform(
          static_cast<std::uint64_t>(resources))));
    p.add_flow(std::move(route));
  }
  const auto rates = p.solve();
  EXPECT_TRUE(p.is_max_min_fair(rates));
  double total = 0;
  for (double r : rates) total += r;
  EXPECT_LE(total, total_cap + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinRandom, ::testing::Range(1, 21));

// A seeded family of problems the fluid models produce, or could: ties
// from repeated capacities and caps, zero-capacity resources, caps mixing
// +inf, finite and 0, duplicate resources in one flow, empty flows, and
// ~300-hop paths sparsely crossing a large resource space.
struct RandomShape {
  int resources;
  int flows;
  int min_hops;
  int max_hops;
  bool capped;
  std::uint64_t zero_odds;  // 1 in zero_odds resources has capacity 0
};

std::vector<double> solve_random(Rng& rng, const RandomShape& s) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool discrete = rng.uniform(2) == 0;  // many exact ties
  std::vector<double> capacity(static_cast<std::size_t>(s.resources));
  for (double& c : capacity) {
    if (rng.uniform(s.zero_odds) == 0) {
      c = 0.0;
    } else if (discrete) {
      static constexpr double kLevels[] = {10e9, 40e9, 5e9, 2.5e9};
      c = kLevels[rng.uniform(4)];
    } else {
      c = rng.uniform_real(1e9, 40e9);
    }
  }
  MaxMinProblem p(capacity);
  std::vector<double> caps;
  for (int f = 0; f < s.flows; ++f) {
    std::vector<int> route;
    if (rng.uniform(20) != 0) {  // else an empty flow
      const auto hops = rng.uniform_int(s.min_hops, s.max_hops);
      for (std::int64_t h = 0; h < hops; ++h)
        route.push_back(static_cast<int>(
            rng.uniform(static_cast<std::uint64_t>(s.resources))));
      if (rng.uniform(8) == 0) route.push_back(route.front());
    }
    p.add_flow(std::move(route));
    if (s.capped) {
      const auto pick = rng.uniform(10);
      caps.push_back(pick < 4   ? kInf
                     : pick == 4 ? 0.0
                     : pick < 7  ? 1e9 * static_cast<double>(1 + pick)
                                 : rng.uniform_real(0.0, 8e9));
    }
  }
  return s.capped ? p.solve_capped(caps) : p.solve();
}

std::uint64_t digest_rates(const std::vector<double>& rates,
                           std::uint64_t h) {
  for (double r : rates) {
    const auto bits = std::bit_cast<std::uint64_t>(r);
    char bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
    h = util::fnv1a(std::string_view(bytes, 8), h);
  }
  return h;
}

// Pins every bit of the solver's output: a rewrite of the filling loop
// must reproduce the recorded rates exactly, not within a tolerance,
// because the fluid FCT model and the hybrid engine's answer hashes
// consume them.
TEST(MaxMin, RatesMatchRecordedDigest) {
  Rng rng(20201104);
  std::uint64_t h = util::kFnv1aOffsetBasis;
  for (int i = 0; i < 40; ++i) {
    h = digest_rates(solve_random(rng, {24, 80, 1, 5, false, 16}), h);
    h = digest_rates(solve_random(rng, {24, 80, 1, 5, true, 16}), h);
  }
  for (int i = 0; i < 8; ++i) {
    h = digest_rates(solve_random(rng, {2000, 100, 10, 40, false, 256}), h);
    h = digest_rates(solve_random(rng, {2000, 100, 10, 40, true, 256}), h);
  }
  for (int i = 0; i < 4; ++i) {  // long paths, sparsely crossed
    h = digest_rates(
        solve_random(rng, {400'000, 150, 250, 350, false, 1 << 14}), h);
    h = digest_rates(
        solve_random(rng, {400'000, 150, 250, 350, true, 1 << 14}), h);
  }
  EXPECT_EQ(h, 18386053894054449395u) << "rates digest " << h;
}

}  // namespace
}  // namespace spineless::flowsim
