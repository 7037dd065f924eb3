#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "util/error.h"

namespace spineless::fault {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<std::string> tokens(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// key=value pairs after the clause keyword.
std::map<std::string, std::string> keyvals(
    const std::vector<std::string>& toks, const std::string& clause) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const auto eq = toks[i].find('=');
    SPINELESS_CHECK_MSG(eq != std::string::npos && eq > 0,
                        "FaultPlan: expected key=value in clause '" + clause +
                            "', got '" + toks[i] + "'");
    kv[toks[i].substr(0, eq)] = toks[i].substr(eq + 1);
  }
  return kv;
}

const std::string& require(const std::map<std::string, std::string>& kv,
                           const std::string& key, const std::string& clause) {
  const auto it = kv.find(key);
  SPINELESS_CHECK_MSG(it != kv.end(), "FaultPlan: clause '" + clause +
                                          "' is missing " + key + "=");
  return it->second;
}

double parse_real(const std::string& s) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    throw Error("FaultPlan: bad number '" + s + "'");
  }
  SPINELESS_CHECK_MSG(used == s.size() && std::isfinite(v),
                      "FaultPlan: bad number '" + s + "'");
  return v;
}

// A link or node id in [0, count): range-checked as a double, so no
// out-of-range value reaches the integer cast.
int parse_id(const std::string& s, int count, const std::string& what) {
  const double v = parse_real(s);
  SPINELESS_CHECK_MSG(v >= 0 && v < count && v == std::floor(v),
                      "FaultPlan: " + what + " id out of range: " + s);
  return static_cast<int>(v);
}

}  // namespace

Time parse_time(const std::string& s) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    throw Error("FaultPlan: bad time '" + s + "'");
  }
  const std::string suffix = s.substr(used);
  Time mult = 0;
  if (suffix == "ns") {
    mult = units::kNanosecond;
  } else if (suffix == "us") {
    mult = units::kMicrosecond;
  } else if (suffix == "ms") {
    mult = units::kMillisecond;
  } else if (suffix == "s") {
    mult = units::kSecond;
  } else {
    throw Error("FaultPlan: time '" + s + "' needs an ns/us/ms/s suffix");
  }
  SPINELESS_CHECK_MSG(std::isfinite(v), "FaultPlan: bad time '" + s + "'");
  SPINELESS_CHECK_MSG(v >= 0, "FaultPlan: negative time '" + s + "'");
  // 2^63 is one past the largest Time.
  const double scaled = v * static_cast<double>(mult);
  SPINELESS_CHECK_MSG(scaled < 0x1p63,
                      "FaultPlan: time out of range '" + s + "'");
  return static_cast<Time>(std::llround(scaled));
}

namespace {

// One clause's claim on a link: which fault channel it drives (physical
// up/down, gray loss, or rate degrade — independent state machines in the
// injector) and over what [start, end) window. Two clauses may target the
// same link only on different channels or disjoint windows; overlapping
// claims used to resolve silently as last-writer-wins, which turns a spec
// typo into a quietly different experiment.
struct ClauseWindow {
  topo::LinkId link;
  int channel;  // 0 = physical, 1 = gray, 2 = degrade
  Time start;
  Time end;  // exclusive; kForever when the clause never releases the link
  std::string clause;
};

constexpr Time kForever = std::numeric_limits<Time>::max();

const char* channel_name(int channel) {
  switch (channel) {
    case 0: return "physical";
    case 1: return "gray";
    default: return "degrade";
  }
}

void reject_overlaps(std::vector<ClauseWindow> windows) {
  // Sort by (link, channel, start); spec order breaks start ties so the
  // error always names the earlier clause first.
  std::stable_sort(windows.begin(), windows.end(),
                   [](const ClauseWindow& a, const ClauseWindow& b) {
                     if (a.link != b.link) return a.link < b.link;
                     if (a.channel != b.channel) return a.channel < b.channel;
                     return a.start < b.start;
                   });
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const ClauseWindow& prev = windows[i - 1];
    const ClauseWindow& cur = windows[i];
    if (prev.link != cur.link || prev.channel != cur.channel) continue;
    if (prev.end > cur.start) {
      throw Error("FaultPlan: clause '" + cur.clause + "' overlaps clause '" +
                  prev.clause + "' on link " + std::to_string(cur.link) +
                  " (" + std::string(channel_name(cur.channel)) +
                  " channel): duplicate clauses targeting the same link must "
                  "use disjoint time windows");
    }
  }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec, const topo::Graph& g,
                           std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  std::vector<ClauseWindow> windows;
  for (const std::string& clause : split(spec, ';')) {
    const auto toks = tokens(clause);
    if (toks.empty()) continue;  // empty clause (trailing ';')
    const std::string& kind = toks[0];
    const auto kv = keyvals(toks, clause);
    auto note = [&](topo::LinkId l, int channel, Time start, Time end) {
      windows.push_back({l, channel, start, end, clause});
    };
    auto flap_links = [&](const std::vector<topo::LinkId>& links) {
      const Time down = parse_time(require(kv, "down", clause));
      const Time up = parse_time(require(kv, "up", clause));
      SPINELESS_CHECK_MSG(up > down,
                          "FaultPlan: up must follow down in '" + clause + "'");
      for (const topo::LinkId l : links) {
        plan.actions_.push_back({FaultAction::Kind::kLinkDown, down, l});
        plan.actions_.push_back({FaultAction::Kind::kLinkUp, up, l});
        note(l, 0, down, up);
      }
    };
    if (kind == "flap") {
      flap_links(
          {parse_id(require(kv, "link", clause), g.num_links(), "link")});
    } else if (kind == "fail") {
      const Time at = parse_time(require(kv, "at", clause));
      const topo::LinkId l =
          parse_id(require(kv, "link", clause), g.num_links(), "link");
      plan.actions_.push_back({FaultAction::Kind::kLinkDown, at, l});
      note(l, 0, at, kForever);
    } else if (kind == "switch") {
      const topo::NodeId node =
          parse_id(require(kv, "node", clause), g.num_switches(), "node");
      std::vector<topo::LinkId> incident;
      for (const topo::Port& p : g.neighbors(node))
        incident.push_back(p.link);
      SPINELESS_CHECK_MSG(!incident.empty(),
                          "FaultPlan: switch clause on isolated node");
      flap_links(incident);
    } else if (kind == "gray") {
      const topo::LinkId l =
          parse_id(require(kv, "link", clause), g.num_links(), "link");
      FaultAction on{FaultAction::Kind::kGrayOn,
                     parse_time(require(kv, "from", clause)), l};
      on.drop_prob = parse_real(require(kv, "drop", clause));
      const auto cit = kv.find("corrupt");
      on.corrupt_prob = cit != kv.end() ? parse_real(cit->second) : 0.0;
      SPINELESS_CHECK_MSG(on.drop_prob >= 0 && on.corrupt_prob >= 0 &&
                              on.drop_prob + on.corrupt_prob <= 1.0,
                          "FaultPlan: gray probabilities out of range in '" +
                              clause + "'");
      plan.actions_.push_back(on);
      const auto uit = kv.find("until");
      Time gray_end = kForever;
      if (uit != kv.end()) {
        const Time until = parse_time(uit->second);
        SPINELESS_CHECK_MSG(until > on.at,
                            "FaultPlan: until must follow from in '" + clause +
                                "'");
        plan.actions_.push_back({FaultAction::Kind::kGrayOff, until, l});
        gray_end = until;
      }
      note(l, 1, on.at, gray_end);
    } else if (kind == "degrade") {
      const topo::LinkId l =
          parse_id(require(kv, "link", clause), g.num_links(), "link");
      FaultAction on{FaultAction::Kind::kDegradeOn,
                     parse_time(require(kv, "from", clause)), l};
      on.rate_factor = parse_real(require(kv, "rate", clause));
      SPINELESS_CHECK_MSG(on.rate_factor > 0 && on.rate_factor <= 1.0,
                          "FaultPlan: rate factor out of (0, 1] in '" +
                              clause + "'");
      plan.actions_.push_back(on);
      const auto uit = kv.find("until");
      Time degrade_end = kForever;
      if (uit != kv.end()) {
        const Time until = parse_time(uit->second);
        SPINELESS_CHECK_MSG(until > on.at,
                            "FaultPlan: until must follow from in '" + clause +
                                "'");
        FaultAction off{FaultAction::Kind::kDegradeOff, until, l};
        plan.actions_.push_back(off);
        degrade_end = until;
      }
      note(l, 2, on.at, degrade_end);
    } else {
      throw Error("FaultPlan: unknown clause kind '" + kind + "'");
    }
  }
  reject_overlaps(std::move(windows));
  // Stable: simultaneous actions apply in spec order.
  std::stable_sort(
      plan.actions_.begin(), plan.actions_.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });
  return plan;
}

FaultPlan FaultPlan::from_actions(std::vector<FaultAction> actions,
                                  std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  plan.actions_ = std::move(actions);
  // Stable: simultaneous actions apply in caller order.
  std::stable_sort(
      plan.actions_.begin(), plan.actions_.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });
  return plan;
}

}  // namespace spineless::fault
