// Sweep-journal tests: record round-trips (including tab/newline/equals/
// quote/backslash escaping), crash relics (partial trailing line), and
// header hygiene (a journal from a different bench, configuration or
// format version is never reused).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "util/fsio.h"
#include "util/json.h"
#include "util/sweep_journal.h"

namespace spineless::util {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "spineless_journal_" + name;
}

// A flat object of string members, as a writer for SweepJournal::record.
JsonWriter object(
    const std::vector<std::pair<std::string, std::string>>& members) {
  JsonWriter w;
  w.begin_object();
  for (const auto& [k, v] : members) w.kv(k, v);
  w.end_object();
  return w;
}

std::string member(const JsonValue* v, const std::string& key) {
  return v->find(key)->as_string();
}

TEST(SweepJournal, RecordsRoundTripAcrossReopen) {
  const std::string path = tmp_path("roundtrip");
  remove_file(path);
  {
    SweepJournal j(path, "fig6", "x=24 y=8", /*resume=*/false);
    j.record("cell0", object({{"label", "DRing m=5"}, {"p99_ms", "1.25"}}));
    j.record("cell1", object({{"label", "RRG m=5"}, {"events", "123456"}}));
  }
  SweepJournal j(path, "fig6", "x=24 y=8", /*resume=*/true);
  EXPECT_EQ(j.loaded(), 2u);
  ASSERT_TRUE(j.has("cell0"));
  ASSERT_TRUE(j.has("cell1"));
  EXPECT_EQ(member(j.get("cell0"), "label"), "DRing m=5");
  EXPECT_EQ(member(j.get("cell0"), "p99_ms"), "1.25");
  EXPECT_EQ(member(j.get("cell1"), "events"), "123456");
  EXPECT_FALSE(j.has("cell2"));
  remove_file(path);
}

TEST(SweepJournal, EscapesSeparatorsInKeysAndValues) {
  const std::string path = tmp_path("escape");
  remove_file(path);
  const std::string nasty = "a\tb\nc=d\\e\"f";
  {
    SweepJournal j(path, "b\tench\"", "sig=1", false);
    j.record("k=ey\t1\"", object({{nasty, nasty}}));
  }
  SweepJournal j(path, "b\tench\"", "sig=1", true);
  ASSERT_EQ(j.loaded(), 1u);
  ASSERT_TRUE(j.has("k=ey\t1\""));
  EXPECT_EQ(member(j.get("k=ey\t1\""), nasty), nasty);
  remove_file(path);
}

TEST(SweepJournal, LastRecordWinsForRewrittenCell) {
  const std::string path = tmp_path("lastwins");
  remove_file(path);
  {
    SweepJournal j(path, "bench", "sig", false);
    j.record("cell0", object({{"v", "first"}}));
    j.record("cell0", object({{"v", "second"}}));
  }
  SweepJournal j(path, "bench", "sig", true);
  EXPECT_EQ(j.loaded(), 1u);
  EXPECT_EQ(member(j.get("cell0"), "v"), "second");
  remove_file(path);
}

TEST(SweepJournal, PartialTrailingLineIsIgnored) {
  const std::string path = tmp_path("partial");
  remove_file(path);
  {
    SweepJournal j(path, "bench", "sig", false);
    j.record("cell0", object({{"v", "ok"}}));
  }
  // Simulate a crash mid-append: a record with no trailing newline.
  std::string contents;
  ASSERT_TRUE(read_file(path, &contents));
  contents += R"({"key":"cell1","value":{"v":"torn"}})";
  ASSERT_TRUE(atomic_write_file(path, contents));

  SweepJournal j(path, "bench", "sig", true);
  EXPECT_EQ(j.loaded(), 1u);
  EXPECT_TRUE(j.has("cell0"));
  EXPECT_FALSE(j.has("cell1"));  // the torn record costs only itself
  remove_file(path);
}

TEST(SweepJournal, MismatchedConfigDiscardsJournal) {
  const std::string path = tmp_path("mismatch");
  remove_file(path);
  {
    SweepJournal j(path, "bench", "intra=1", false);
    j.record("cell0", object({{"v", "stale"}}));
  }
  // Same bench, different configuration: the records cannot be reused.
  SweepJournal j(path, "bench", "intra=4", /*resume=*/true);
  EXPECT_EQ(j.loaded(), 0u);
  EXPECT_FALSE(j.has("cell0"));
  EXPECT_FALSE(file_exists(path));  // stale file was dropped
  remove_file(path);
}

TEST(SweepJournal, NonResumeOpenTruncatesExistingJournal) {
  const std::string path = tmp_path("truncate");
  remove_file(path);
  {
    SweepJournal j(path, "bench", "sig", false);
    j.record("cell0", object({{"v", "old"}}));
  }
  {
    SweepJournal j(path, "bench", "sig", /*resume=*/false);
    EXPECT_EQ(j.loaded(), 0u);
    EXPECT_FALSE(j.has("cell0"));
  }
  remove_file(path);
}

// A journal in the tab-separated v1 format of older builds fails the header
// check and is dropped on resume, never misread as records.
TEST(SweepJournal, V1TabFormatJournalIsDiscarded) {
  const std::string path = tmp_path("v1");
  remove_file(path);
  ASSERT_TRUE(atomic_write_file(path,
                                "sweepjournal\tv1\tbench\tsig\n"
                                "cell\tcell0\tlabel=old\tevents=7\n"));
  SweepJournal j(path, "bench", "sig", /*resume=*/true);
  EXPECT_EQ(j.loaded(), 0u);
  EXPECT_FALSE(j.has("cell0"));
  EXPECT_FALSE(file_exists(path));
  // The fresh journal it starts in its place resumes normally.
  j.record("cell1", object({{"v", "new"}}));
  SweepJournal again(path, "bench", "sig", /*resume=*/true);
  EXPECT_EQ(again.loaded(), 1u);
  EXPECT_EQ(member(again.get("cell1"), "v"), "new");
  remove_file(path);
}

}  // namespace
}  // namespace spineless::util
