// FaultPlan spec parsing: grammar, expansion, ordering, and validation.
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include "topo/builders.h"
#include "util/error.h"

namespace spineless::fault {
namespace {

using Kind = FaultAction::Kind;

topo::Graph square() {
  topo::Graph g(4);
  g.add_link(0, 1);  // link 0
  g.add_link(1, 2);  // link 1
  g.add_link(2, 3);  // link 2
  g.add_link(3, 0);  // link 3
  return g;
}

TEST(ParseTime, SuffixesAndFractions) {
  EXPECT_EQ(parse_time("250ns"), 250 * units::kNanosecond);
  EXPECT_EQ(parse_time("1.5us"), 1'500 * units::kNanosecond);
  EXPECT_EQ(parse_time("2ms"), 2 * units::kMillisecond);
  EXPECT_EQ(parse_time("0.01s"), 10 * units::kMillisecond);
  EXPECT_EQ(parse_time("0ns"), 0);
}

TEST(ParseTime, RejectsMalformed) {
  EXPECT_THROW(parse_time("2"), Error);       // no suffix
  EXPECT_THROW(parse_time("2m"), Error);      // unknown suffix
  EXPECT_THROW(parse_time("-1ms"), Error);    // negative
  EXPECT_THROW(parse_time("fast"), Error);    // not a number
  EXPECT_THROW(parse_time("1e999ms"), Error);  // stod out of range
  EXPECT_THROW(parse_time("infms"), Error);    // non-finite
  EXPECT_THROW(parse_time("nanms"), Error);
  EXPECT_THROW(parse_time("1e300ms"), Error);  // overflows Time
  EXPECT_THROW(parse_time("9223373s"), Error);
}

TEST(FaultPlan, FlapExpandsToDownAndUp) {
  const auto g = square();
  const auto plan = FaultPlan::parse("flap link=1 down=2ms up=6ms", g, 7);
  ASSERT_EQ(plan.actions().size(), 2u);
  EXPECT_EQ(plan.actions()[0].kind, Kind::kLinkDown);
  EXPECT_EQ(plan.actions()[0].at, 2 * units::kMillisecond);
  EXPECT_EQ(plan.actions()[0].link, 1);
  EXPECT_EQ(plan.actions()[1].kind, Kind::kLinkUp);
  EXPECT_EQ(plan.actions()[1].at, 6 * units::kMillisecond);
  EXPECT_EQ(plan.seed(), 7u);
}

TEST(FaultPlan, FailNeverRecovers) {
  const auto plan = FaultPlan::parse("fail link=2 at=1ms", square(), 0);
  ASSERT_EQ(plan.actions().size(), 1u);
  EXPECT_EQ(plan.actions()[0].kind, Kind::kLinkDown);
  EXPECT_EQ(plan.actions()[0].link, 2);
}

TEST(FaultPlan, SwitchFlapsEveryIncidentLink) {
  const auto g = square();
  const auto plan = FaultPlan::parse("switch node=0 down=1ms up=2ms", g, 0);
  // Node 0 touches links 0 and 3: two downs then two ups.
  ASSERT_EQ(plan.actions().size(), 4u);
  EXPECT_EQ(plan.actions()[0].kind, Kind::kLinkDown);
  EXPECT_EQ(plan.actions()[1].kind, Kind::kLinkDown);
  EXPECT_EQ(plan.actions()[2].kind, Kind::kLinkUp);
  EXPECT_EQ(plan.actions()[3].kind, Kind::kLinkUp);
  EXPECT_EQ(plan.actions()[0].link, 0);
  EXPECT_EQ(plan.actions()[1].link, 3);
}

TEST(FaultPlan, GrayDefaultsAndBounds) {
  const auto g = square();
  const auto plan =
      FaultPlan::parse("gray link=0 drop=0.01 from=1ms", g, 0);
  ASSERT_EQ(plan.actions().size(), 1u);  // no until => active forever
  EXPECT_EQ(plan.actions()[0].kind, Kind::kGrayOn);
  EXPECT_DOUBLE_EQ(plan.actions()[0].drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.actions()[0].corrupt_prob, 0.0);

  const auto timed = FaultPlan::parse(
      "gray link=0 drop=0.01 corrupt=0.001 from=1ms until=9ms", g, 0);
  ASSERT_EQ(timed.actions().size(), 2u);
  EXPECT_DOUBLE_EQ(timed.actions()[0].corrupt_prob, 0.001);
  EXPECT_EQ(timed.actions()[1].kind, Kind::kGrayOff);
  EXPECT_EQ(timed.actions()[1].at, 9 * units::kMillisecond);
}

TEST(FaultPlan, DegradeScalesRate) {
  const auto plan = FaultPlan::parse(
      "degrade link=3 rate=0.5 from=1ms until=8ms", square(), 0);
  ASSERT_EQ(plan.actions().size(), 2u);
  EXPECT_EQ(plan.actions()[0].kind, Kind::kDegradeOn);
  EXPECT_DOUBLE_EQ(plan.actions()[0].rate_factor, 0.5);
  EXPECT_EQ(plan.actions()[1].kind, Kind::kDegradeOff);
}

TEST(FaultPlan, ActionsSortedByTimeStably) {
  const auto g = square();
  // Clauses deliberately out of time order; a tie at 2ms must keep spec
  // order (gray before the flap's down).
  const auto plan = FaultPlan::parse(
      "flap link=1 down=2ms up=6ms; gray link=0 drop=0.1 from=2ms;"
      " fail link=2 at=1ms",
      g, 0);
  ASSERT_EQ(plan.actions().size(), 4u);
  EXPECT_EQ(plan.actions()[0].at, 1 * units::kMillisecond);
  EXPECT_EQ(plan.actions()[0].kind, Kind::kLinkDown);  // the fail
  EXPECT_EQ(plan.actions()[1].at, 2 * units::kMillisecond);
  EXPECT_EQ(plan.actions()[1].kind, Kind::kLinkDown);  // flap: spec order
  EXPECT_EQ(plan.actions()[2].at, 2 * units::kMillisecond);
  EXPECT_EQ(plan.actions()[2].kind, Kind::kGrayOn);
  EXPECT_EQ(plan.actions()[3].at, 6 * units::kMillisecond);
}

TEST(FaultPlan, EmptyClausesIgnored) {
  const auto plan = FaultPlan::parse("; fail link=0 at=1ms ;", square(), 0);
  EXPECT_EQ(plan.actions().size(), 1u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  const auto g = square();
  EXPECT_THROW(FaultPlan::parse("explode link=0 at=1ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("fail link=9 at=1ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("fail at=1ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("fail link at=1ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("flap link=0 down=2ms up=2ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("switch node=7 down=1ms up=2ms", g, 0), Error);
  EXPECT_THROW(FaultPlan::parse("gray link=0 drop=1.5 from=0ms", g, 0), Error);
  EXPECT_THROW(
      FaultPlan::parse("gray link=0 drop=0.6 corrupt=0.6 from=0ms", g, 0),
      Error);
  EXPECT_THROW(FaultPlan::parse("degrade link=0 rate=0 from=0ms", g, 0),
               Error);
  EXPECT_THROW(FaultPlan::parse("degrade link=0 rate=2 from=0ms", g, 0),
               Error);
  // Numbers that are not finite ints in range: a clean Error, never UB in
  // the cast or a bare std::invalid_argument from stod.
  for (const char* spec :
       {"fail link=1e20 at=1ms", "fail link=nan at=1ms",
        "fail link=abc at=1ms", "fail link=1e999 at=1ms",
        "fail link=-1 at=1ms", "fail link=0.5 at=1ms", "fail link=inf at=1ms",
        "switch node=1e20 down=1ms up=2ms", "switch node=nan down=1ms up=2ms",
        "fail link=0 at=1e300ms", "fail link=0 at=infms",
        "gray link=0 drop=nan from=0ms", "degrade link=0 rate=abc from=0ms"})
    EXPECT_THROW(FaultPlan::parse(spec, g, 0), Error) << spec;
}

// Duplicate clauses targeting the same link with overlapping windows used
// to resolve silently as last-writer-wins; the parser now rejects them with
// an error naming both clauses, the link, and the fault channel.
TEST(FaultPlan, RejectsOverlappingClausesOnSameLink) {
  const auto g = square();
  const auto expect_overlap = [&](const std::string& spec,
                                  const std::string& needle) {
    try {
      FaultPlan::parse(spec, g, 0);
      FAIL() << "expected overlap rejection for: " << spec;
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("overlaps clause"), std::string::npos) << msg;
      EXPECT_NE(msg.find("disjoint time windows"), std::string::npos) << msg;
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  };
  // Two flaps of the same link with intersecting [down, up) windows.
  expect_overlap("flap link=1 down=2ms up=6ms; flap link=1 down=4ms up=8ms",
                 "link 1 (physical channel)");
  // fail never recovers, so ANY later physical clause on that link overlaps.
  expect_overlap("fail link=2 at=1ms; flap link=2 down=5ms up=6ms",
                 "link 2 (physical channel)");
  // A switch clause claims every incident link; a flap of one of them
  // inside the same window double-drives it.
  expect_overlap("switch node=0 down=1ms up=4ms; flap link=3 down=2ms up=3ms",
                 "link 3 (physical channel)");
  // Unbounded gray (no until=) overlaps any later gray on the same link.
  expect_overlap("gray link=0 drop=0.1 from=1ms; gray link=0 drop=0.2 from=5ms",
                 "link 0 (gray channel)");
  expect_overlap(
      "degrade link=0 rate=0.5 from=1ms until=9ms;"
      " degrade link=0 rate=0.25 from=8ms until=10ms",
      "link 0 (degrade channel)");
}

TEST(FaultPlan, DisjointOrCrossChannelClausesOnSameLinkAreLegal) {
  const auto g = square();
  // Back-to-back flaps: the first window's exclusive end may touch the
  // second's start.
  const auto seq = FaultPlan::parse(
      "flap link=1 down=2ms up=6ms; flap link=1 down=6ms up=8ms", g, 0);
  EXPECT_EQ(seq.actions().size(), 4u);
  // Physical, gray, and degrade are independent channels in the injector,
  // so one link may carry all three at once.
  const auto cross = FaultPlan::parse(
      "flap link=0 down=2ms up=6ms; gray link=0 drop=0.1 from=1ms until=9ms;"
      " degrade link=0 rate=0.5 from=1ms until=9ms",
      g, 0);
  EXPECT_EQ(cross.actions().size(), 6u);
}

TEST(FaultPlan, OverlapErrorNamesBothClauses) {
  const auto g = square();
  try {
    FaultPlan::parse("fail link=0 at=1ms; fail link=0 at=2ms", g, 0);
    FAIL() << "expected overlap rejection";
  } catch (const Error& e) {
    const std::string msg = e.what();
    // The later clause is reported as overlapping the earlier one.
    EXPECT_NE(msg.find("' fail link=0 at=2ms' overlaps clause 'fail link=0 "
                       "at=1ms'"),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace spineless::fault
