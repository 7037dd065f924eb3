#include "flowsim/maxmin.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"

namespace spineless::flowsim {

namespace {

// NaN fails every comparison, so `>= 0` alone would admit it and the
// filling loop would silently never saturate the resource.
void check_capacity(std::size_t r, double c) {
  SPINELESS_CHECK_MSG(c >= 0 && !std::isnan(c),
                      "MaxMinProblem: capacity[" << r << "] = " << c
                          << " — capacities must be >= 0 and not NaN");
}

}  // namespace

MaxMinProblem::MaxMinProblem(std::vector<double> capacities)
    : capacity_(std::move(capacities)) {
  for (std::size_t r = 0; r < capacity_.size(); ++r)
    check_capacity(r, capacity_[r]);
}

int MaxMinProblem::add_flow(std::span<const int> resources) {
  for (int r : resources)
    SPINELESS_CHECK_MSG(r >= 0 && r < num_resources(),
                        "add_flow: resource " << r << " outside [0, "
                                              << num_resources() << ")");
  ids_.insert(ids_.end(), resources.begin(), resources.end());
  offsets_.push_back(ids_.size());
  return num_flows() - 1;
}

void MaxMinProblem::clear_flows() {
  offsets_.resize(1);
  ids_.clear();
}

void MaxMinProblem::set_capacity(int r, double capacity) {
  SPINELESS_CHECK_MSG(r >= 0 && r < num_resources(),
                      "set_capacity: resource " << r << " outside [0, "
                                                << num_resources() << ")");
  check_capacity(static_cast<std::size_t>(r), capacity);
  capacity_[static_cast<std::size_t>(r)] = capacity;
}

std::vector<double> MaxMinProblem::solve() const { return solve_capped({}); }

std::vector<double> MaxMinProblem::solve_capped(
    const std::vector<double>& caps) const {
  const auto nf = static_cast<std::size_t>(num_flows());
  const bool capped = !caps.empty();
  if (capped) {
    SPINELESS_CHECK_MSG(caps.size() == nf,
                        "solve_capped: " << caps.size() << " caps for " << nf
                                         << " flows — pass one cap per flow "
                                            "or an empty vector for no caps");
    for (std::size_t f = 0; f < nf; ++f) {
      // A negative cap would make `caps[f] - level` negative and stall
      // the filling; NaN poisons every min(). +infinity means uncapped.
      SPINELESS_CHECK_MSG(caps[f] >= 0 && !std::isnan(caps[f]),
                          "solve_capped: caps[" << f << "] = " << caps[f]
                              << " — caps must be >= 0 and not NaN");
    }
  }
  // The filling runs over the resources flows cross, renumbered densely in
  // ascending id order: a bitmap of crossed ids plus per-word prefix counts
  // gives each id its compact index. No solve allocates or clears a
  // per-resource array — on a 100k-switch network that is megabytes per
  // solve, for the few thousand resources flows touch. Compact ids, flow
  // ids and entry offsets fit 32 bits, which halves the working set.
  using Index = std::uint32_t;
  SPINELESS_CHECK_MSG(ids_.size() <= std::numeric_limits<Index>::max(),
                      "MaxMinProblem: " << ids_.size()
                                        << " flow-resource entries");
  std::vector<std::uint64_t> crossed((capacity_.size() + 63) / 64, 0);
  for (int r : ids_) {
    const auto u = static_cast<std::size_t>(r);
    crossed[u / 64] |= std::uint64_t{1} << (u % 64);
  }
  std::vector<Index> before(crossed.size() + 1, 0);
  for (std::size_t w = 0; w < crossed.size(); ++w)
    before[w + 1] = before[w] + static_cast<Index>(std::popcount(crossed[w]));
  const std::size_t nt = before.back();
  // Per compact resource: headroom left, and the saturation tolerance
  // (relative to the original capacity scale).
  std::vector<double> remaining(nt);
  std::vector<double> tolerance(nt);
  for (std::size_t w = 0, k = 0; w < crossed.size(); ++w) {
    for (std::uint64_t bits = crossed[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      remaining[k] = capacity_[64 * w + bit];
      tolerance[k] = 1e-9 * std::max(1.0, remaining[k]);
      ++k;
    }
  }
  // Two CSR views of the same entries: each flow's compact resources
  // (offsets_ index them), and each compact resource's flows,
  // users[first[k] .. first[k + 1]), one entry per crossing.
  std::vector<Index> res(ids_.size());
  std::vector<Index> first(nt + 1, 0);
  for (std::size_t e = 0; e < ids_.size(); ++e) {
    const auto u = static_cast<std::size_t>(ids_[e]);
    const std::uint64_t below = (std::uint64_t{1} << (u % 64)) - 1;
    res[e] = before[u / 64] +
             static_cast<Index>(std::popcount(crossed[u / 64] & below));
    ++first[res[e]];
  }
  // Active consumption count per resource: every crossing, as all flows
  // start active. Counts are small integers, so as doubles they are exact.
  std::vector<Index> load(first.begin(), first.end() - 1);
  for (std::size_t k = 1; k < nt; ++k) first[k] += first[k - 1];
  first[nt] = static_cast<Index>(ids_.size());
  std::vector<Index> users(ids_.size());
  for (std::size_t f = nf; f-- > 0;) {
    for (std::size_t e = offsets_[f + 1]; e-- > offsets_[f];)
      users[--first[res[e]]] = static_cast<Index>(f);
  }

  // Every flow with a resource starts active.
  std::vector<double> rate(nf, 0.0);
  std::vector<char> active(nf, 0);
  std::size_t num_active = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (offsets_[f] == offsets_[f + 1]) continue;  // unconstrained: rate 0
    active[f] = 1;
    ++num_active;
  }
  // Resources some active flow still crosses, in ascending compact order;
  // shrinks as flows freeze.
  std::vector<Index> touched(nt);
  for (std::size_t k = 0; k < nt; ++k) touched[k] = static_cast<Index>(k);

  // Finite caps of active flows, ascending twice: by cap (the smallest
  // bounds each round's increment) and by freeze threshold (a flow freezes
  // once the level reaches it). +inf caps stay out: they bound nothing, and
  // their threshold inf - 1e-9 * inf is NaN, which no sort can order.
  std::vector<double> threshold;
  std::vector<Index> by_cap;
  if (capped) {
    threshold.resize(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      threshold[f] = caps[f] - 1e-9 * std::max(1.0, caps[f]);
      if (active[f] && std::isfinite(caps[f]))
        by_cap.push_back(static_cast<Index>(f));
    }
  }
  std::vector<Index> by_threshold = by_cap;
  std::sort(by_cap.begin(), by_cap.end(), [&](Index a, Index b) {
    return caps[a] < caps[b] || (caps[a] == caps[b] && a < b);
  });
  std::sort(by_threshold.begin(), by_threshold.end(),
            [&](Index a, Index b) {
              return threshold[a] < threshold[b] ||
                     (threshold[a] == threshold[b] && a < b);
            });
  std::size_t cap_cursor = 0;
  std::size_t threshold_cursor = 0;

  // Every active flow has received the same increments, so one level is
  // each active flow's rate, bit for bit; a flow's rate is written once,
  // when it freezes.
  double level = 0.0;
  const auto freeze = [&](Index f) {
    if (!active[f]) return;
    active[f] = 0;
    --num_active;
    rate[f] = level;
    for (std::size_t e = offsets_[f]; e < offsets_[f + 1]; ++e) --load[res[e]];
  };
  std::vector<Index> saturated;  // this round's
  while (num_active > 0) {
    // Bottleneck increment: the smallest per-flow headroom across loaded
    // resources, further limited by the nearest active flow cap.
    double inc = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (Index k : touched) {
      if (load[k] == 0) continue;
      touched[kept++] = k;
      inc = std::min(inc, remaining[k] / static_cast<double>(load[k]));
    }
    touched.resize(kept);
    while (cap_cursor < by_cap.size() && !active[by_cap[cap_cursor]])
      ++cap_cursor;
    if (cap_cursor < by_cap.size())
      inc = std::min(inc, caps[by_cap[cap_cursor]] - level);
    SPINELESS_CHECK(std::isfinite(inc));
    inc = std::max(inc, 0.0);
    level += inc;

    saturated.clear();
    for (Index k : touched) {
      remaining[k] -= inc * static_cast<double>(load[k]);
      if (remaining[k] <= tolerance[k]) saturated.push_back(k);
    }

    // Freeze every active flow pinned at its cap or crossing a saturated
    // resource.
    const std::size_t active_before = num_active;
    while (threshold_cursor < by_threshold.size() &&
           level >= threshold[by_threshold[threshold_cursor]])
      freeze(by_threshold[threshold_cursor++]);
    for (Index k : saturated) {
      for (Index i = first[k]; i < first[k + 1]; ++i) freeze(users[i]);
    }
    SPINELESS_CHECK_MSG(num_active < active_before || num_active == 0,
                        "water-filling made no progress");
  }
  return rate;
}

bool MaxMinProblem::is_max_min_fair(const std::vector<double>& rates,
                                    double tol) const {
  const auto nf = static_cast<std::size_t>(num_flows());
  if (rates.size() != nf) return false;
  const std::size_t nr = capacity_.size();
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    for (int r : flow(f)) used[static_cast<std::size_t>(r)] += rates[f];
  }
  // Feasibility.
  for (std::size_t r = 0; r < nr; ++r) {
    if (used[r] > capacity_[r] + tol * std::max(1.0, capacity_[r]))
      return false;
  }
  // Max-min certificate: every flow crosses some saturated resource where
  // no other flow has a strictly larger rate.
  for (std::size_t f = 0; f < nf; ++f) {
    if (flow(f).empty()) continue;
    bool certified = false;
    for (int r : flow(f)) {
      const auto ri = static_cast<std::size_t>(r);
      if (used[ri] < capacity_[ri] - tol * std::max(1.0, capacity_[ri]))
        continue;  // not saturated
      bool maximal = true;
      for (std::size_t g = 0; g < nf && maximal; ++g) {
        if (g == f) continue;
        const std::span<const int> route = flow(g);
        const bool crosses = std::ranges::find(route, r) != route.end();
        if (crosses && rates[g] > rates[f] + tol) maximal = false;
      }
      if (maximal) {
        certified = true;
        break;
      }
    }
    if (!certified) return false;
  }
  return true;
}

}  // namespace spineless::flowsim
