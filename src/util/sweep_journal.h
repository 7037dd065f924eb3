// Resumable-sweep journal: one durably appended JSON line per completed (or
// permanently failed) cell, so a killed sweep rerun with --resume skips
// finished cells and re-runs only the rest. The first line is a header
// naming the format version, the bench and its configuration signature;
// every later line is {"key":K,"value":V}, where V is the JSON value the
// caller recorded under K (the benches record a cell's BENCH_*.json object
// itself). A journal whose header does not parse or match — including the
// tab-separated v1 format of older builds — is discarded, never misread.
//
// Crash safety: each record is a single short O_APPEND write followed by
// fsync — atomic on POSIX — and the loader ignores a trailing line with no
// newline, so a crash mid-append costs at most that one cell.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "util/json.h"

namespace spineless::util {

class SweepJournal {
 public:
  // Opens `path`. When `resume` is true and the file starts with a header
  // matching (bench, config_sig), existing records load; otherwise the
  // file is truncated and a fresh header written on the first record.
  // config_sig should encode every flag that changes cell results, so a
  // journal from a different configuration is never silently reused.
  SweepJournal(std::string path, std::string bench, std::string config_sig,
               bool resume);

  bool has(const std::string& key) const;
  // The value last recorded under `key`, or nullptr. Records live in
  // node-stable storage: the pointer stays valid across later record()
  // calls, though get() itself must not race a concurrent record().
  const JsonValue* get(const std::string& key) const;
  std::size_t loaded() const noexcept { return loaded_; }

  // Durably appends `value` (a writer holding one complete JSON value)
  // under `key` (thread-safe; cells complete concurrently).
  void record(const std::string& key, const JsonWriter& value);

  const std::string& path() const noexcept { return path_; }

  // Deletes the journal file; call after the sweep finishes cleanly and
  // its results are safely in the final BENCH JSON.
  void remove();

 private:
  void load();
  bool is_header(const JsonValue& line) const;

  std::string path_;
  std::string bench_;
  std::string config_sig_;
  bool header_written_ = false;
  std::size_t loaded_ = 0;
  std::map<std::string, JsonValue> records_;
  std::mutex mu_;
};

}  // namespace spineless::util
