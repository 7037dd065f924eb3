#include "util/sweep_journal.h"

#include <utility>

#include "util/error.h"
#include "util/fsio.h"

namespace spineless::util {
namespace {

constexpr char kFormatKey[] = "sweep_journal";
constexpr std::int64_t kVersion = 2;

}  // namespace

SweepJournal::SweepJournal(std::string path, std::string bench,
                           std::string config_sig, bool resume)
    : path_(std::move(path)),
      bench_(std::move(bench)),
      config_sig_(std::move(config_sig)) {
  if (resume && file_exists(path_)) {
    load();
  } else {
    // A fresh (or non-resumed) sweep must not inherit stale records.
    remove_file(path_);
  }
}

bool SweepJournal::is_header(const JsonValue& line) const {
  const JsonValue* version = line.find(kFormatKey);
  const JsonValue* bench = line.find("bench");
  const JsonValue* config = line.find("config");
  return version != nullptr && version->is_number() &&
         version->as_number() == kVersion && bench != nullptr &&
         bench->is_string() && bench->as_string() == bench_ &&
         config != nullptr && config->is_string() &&
         config->as_string() == config_sig_;
}

void SweepJournal::load() {
  std::string contents;
  if (!read_file(path_, &contents)) return;
  bool header_ok = false;
  std::size_t pos = 0;
  // A trailing line with no newline is a crash relic and never read.
  for (std::size_t nl = contents.find('\n'); nl != std::string::npos;
       pos = nl + 1, nl = contents.find('\n', pos)) {
    JsonValue line;
    try {
      line = parse_json(contents.substr(pos, nl - pos));
    } catch (const Error&) {
      if (!header_ok) break;
      continue;
    }
    if (!header_ok) {
      header_ok = is_header(line);
      if (!header_ok) break;
      continue;
    }
    const JsonValue* key = line.find("key");
    const JsonValue* value = line.find("value");
    if (key != nullptr && key->is_string() && value != nullptr)
      records_[key->as_string()] = *value;  // last record wins
  }
  if (!header_ok) {
    // Different bench/config/format (or corrupt header): the records cannot
    // be trusted for this run.
    records_.clear();
    remove_file(path_);
    return;
  }
  header_written_ = true;
  loaded_ = records_.size();
}

bool SweepJournal::has(const std::string& key) const {
  return records_.count(key) != 0;
}

const JsonValue* SweepJournal::get(const std::string& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

void SweepJournal::record(const std::string& key, const JsonWriter& value) {
  JsonWriter line;
  line.begin_object();
  line.kv("key", key);
  line.key("value");
  line.value(value);
  line.end_object();
  JsonValue parsed = parse_json(value.str());
  std::lock_guard<std::mutex> lock(mu_);
  if (!header_written_) {
    JsonWriter header;
    header.begin_object();
    header.kv(kFormatKey, kVersion);
    header.kv("bench", bench_);
    header.kv("config", config_sig_);
    header.end_object();
    SPINELESS_CHECK_MSG(append_line_durable(path_, header.str()),
                        "cannot write sweep journal " + path_);
    header_written_ = true;
  }
  SPINELESS_CHECK_MSG(append_line_durable(path_, line.str()),
                      "cannot append to sweep journal " + path_);
  records_[key] = std::move(parsed);
}

void SweepJournal::remove() { remove_file(path_); }

}  // namespace spineless::util
