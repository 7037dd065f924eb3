// The bench cell codec (bench/bench_common.h): a BenchJson::Cell recorded
// to the sweep journal and read back after a reopen with --resume re-emits
// the byte-identical BENCH cell object, and no field is lost on the way.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "util/fsio.h"
#include "util/json.h"
#include "util/sweep_journal.h"

namespace spineless::bench {
namespace {

std::string emit(const BenchJson::Cell& c) {
  JsonWriter w;
  c.write_json(w);
  return w.str();
}

// Every field away from its default. Variant 0 sets every block;
// variants 1 and 2 each leave out one of the two blocks that share
// goodput_recovery, so a drop in either block shows. detect_ms and
// outage_ms take their default -1 in one variant each.
BenchJson::Cell full_cell(int variant) {
  const std::string nasty = "tab\t nl\n quote\" back\\ eq=";
  BenchJson::Cell c;
  c.label = "cell " + nasty;
  c.wall_s = 1.234567890123;  // more digits than the JSON keeps
  c.events = (1ULL << 53) + 3;
  c.intra_jobs = 4;
  c.table_build_s = 0.0625;
  c.status = "failed";
  c.attempts = 3;
  c.error = "boom " + nasty;
  c.goodput_recovery = 0.96875;
  c.has_fct = true;
  c.flows = 1001;
  c.completed = 999;
  c.p50_ms = 0.25;
  c.p99_ms = 12.5;
  c.drops = 17;
  c.retransmits = 23;
  if (variant != 2) {
    c.has_fault = true;
    c.blackhole_s = 0.03125;
    c.detect_ms = variant == 0 ? -1 : 2.5;
    c.outage_ms = variant == 1 ? -1 : 7.25;
    c.blackhole_drops = 97;
    c.gray_drops = 101;
    c.corrupt_drops = 103;
    c.rescued_flows = 107;
    c.undetected_gray_windows = 109;
    c.fault_outages = 113;
    c.fault_completed = 127;
    c.fault_flows = 131;
  }
  c.has_hybrid = true;
  c.result_hash = 0x9e3779b97f4a7c15ULL;  // >= 2^63
  c.fluid_windows = 41;
  c.fluid_solves = 43;
  c.fluid_solves_skipped = 47;
  c.internal_flows = 53;
  c.boundary_flows = 59;
  c.external_flows = 61;
  c.region_switches = 67;
  c.cut_links = 71;
  if (variant != 1) {
    c.has_hybrid_fault = true;
    c.failed_links = 73;
    c.stalled_flows = 83;
    c.boundary_repins = 89;
    c.fluid_outages = 79;
    c.fluid_blackhole_s = 0.5;
    c.stalled_s = 1.75;
  }
  c.has_calib = true;
  c.packet_p50_ms = 0.125;
  c.packet_p99_ms = 3.5;
  c.p50_ratio = 1.5;
  c.p99_ratio = 2.25;
  return c;
}

TEST(BenchCell, JournalRecordReemitsByteIdenticalBenchObject) {
  const std::string path =
      ::testing::TempDir() + "spineless_bench_cell.journal";
  util::remove_file(path);
  const std::vector<BenchJson::Cell> cells = {full_cell(0), full_cell(1),
                                              full_cell(2)};
  {
    util::SweepJournal j(path, "bench", "sig", /*resume=*/false);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      JsonWriter w;
      cells[i].write_json(w);
      j.record("cell" + std::to_string(i), w);
    }
  }
  // The journal line holds exactly the BENCH object.
  std::string contents;
  ASSERT_TRUE(util::read_file(path, &contents));
  for (const auto& c : cells)
    EXPECT_NE(contents.find("\"value\":" + emit(c) + "}\n"),
              std::string::npos);

  util::SweepJournal j(path, "bench", "sig", /*resume=*/true);
  ASSERT_EQ(j.loaded(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell" + std::to_string(i));
    const JsonValue* rec = j.get("cell" + std::to_string(i));
    ASSERT_NE(rec, nullptr);
    const BenchJson::Cell back = BenchJson::Cell::from_json(*rec);
    EXPECT_EQ(emit(back), emit(cells[i]));
    // Field by field, so a field the writer or the reader drops shows up
    // at its default. Only wall_s changes: to the digits it prints with.
    EXPECT_EQ(back.wall_s, json_rounded(cells[i].wall_s));
    EXPECT_NE(back.wall_s, cells[i].wall_s);
    BenchJson::Cell want = cells[i];
    want.wall_s = back.wall_s;
    EXPECT_TRUE(back == want);
  }
  const std::string first = emit(cells[0]);
  EXPECT_NE(first.find("\"result_hash\":11400714819323198485,"),
            std::string::npos);
  EXPECT_NE(first.find("\"events\":9007199254740995,"), std::string::npos);
  EXPECT_NE(first.find("\"detect_ms\":-1,"), std::string::npos);
  util::remove_file(path);
}

}  // namespace
}  // namespace spineless::bench
