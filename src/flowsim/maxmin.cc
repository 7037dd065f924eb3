#include "flowsim/maxmin.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/error.h"

namespace spineless::flowsim {

MaxMinProblem::MaxMinProblem(std::vector<double> capacities)
    : capacity_(std::move(capacities)) {
  for (std::size_t r = 0; r < capacity_.size(); ++r) {
    // NaN fails every comparison, so `>= 0` alone would admit it and the
    // filling loop would silently never saturate the resource.
    SPINELESS_CHECK_MSG(capacity_[r] >= 0 && !std::isnan(capacity_[r]),
                        "MaxMinProblem: capacity[" << r << "] = "
                            << capacity_[r]
                            << " — capacities must be >= 0 and not NaN");
  }
}

int MaxMinProblem::add_flow(std::vector<int> resources) {
  for (int r : resources)
    SPINELESS_CHECK_MSG(r >= 0 && r < num_resources(),
                        "add_flow: resource " << r << " outside [0, "
                                              << num_resources() << ")");
  flows_.push_back(std::move(resources));
  return static_cast<int>(flows_.size()) - 1;
}

std::vector<double> MaxMinProblem::solve() const { return solve_capped({}); }

std::vector<double> MaxMinProblem::solve_capped(
    const std::vector<double>& caps) const {
  const std::size_t nf = flows_.size();
  const bool capped = !caps.empty();
  if (capped) {
    SPINELESS_CHECK_MSG(caps.size() == nf,
                        "solve_capped: " << caps.size() << " caps for " << nf
                                         << " flows — pass one cap per flow "
                                            "or an empty vector for no caps");
    for (std::size_t f = 0; f < nf; ++f) {
      // A negative cap would make `caps[f] - rate[f]` negative and stall
      // the filling; NaN poisons every min(). +infinity means uncapped.
      SPINELESS_CHECK_MSG(caps[f] >= 0 && !std::isnan(caps[f]),
                          "solve_capped: caps[" << f << "] = " << caps[f]
                              << " — caps must be >= 0 and not NaN");
    }
  }
  // The filling runs over the resources flows cross, renumbered densely in
  // ascending id order: a bitmap of crossed ids plus per-word prefix counts
  // gives each id its compact index in O(1). No solve allocates or clears
  // a per-resource array of doubles — on a 100k-switch network that is
  // megabytes per solve, for the few thousand resources flows touch.
  std::vector<std::uint64_t> crossed((capacity_.size() + 63) / 64, 0);
  for (const std::vector<int>& res : flows_) {
    for (int r : res) {
      const auto u = static_cast<std::size_t>(r);
      crossed[u / 64] |= std::uint64_t{1} << (u % 64);
    }
  }
  std::vector<std::size_t> before(crossed.size() + 1, 0);
  for (std::size_t w = 0; w < crossed.size(); ++w) {
    before[w + 1] =
        before[w] + static_cast<std::size_t>(std::popcount(crossed[w]));
  }
  const auto compact = [&](int r) {
    const auto u = static_cast<std::size_t>(r);
    const std::uint64_t below = (std::uint64_t{1} << (u % 64)) - 1;
    return before[u / 64] +
           static_cast<std::size_t>(std::popcount(crossed[u / 64] & below));
  };
  const std::size_t nt = before.back();
  std::vector<double> capacity(nt);  // per compact resource
  for (std::size_t w = 0, k = 0; w < crossed.size(); ++w) {
    for (std::uint64_t bits = crossed[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      capacity[k++] = capacity_[64 * w + bit];
    }
  }

  std::vector<double> rate(nf, 0.0);
  std::vector<double> remaining = capacity;
  // Active consumption count per resource.
  std::vector<double> load(nt, 0.0);
  std::vector<char> active(nf, 0);
  std::size_t num_active = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows_[f].empty()) continue;  // unconstrained: leave at rate 0
    active[f] = 1;
    ++num_active;
    for (int r : flows_[f]) load[compact(r)] += 1.0;
  }
  // Resources some active flow still crosses; shrinks as flows freeze.
  std::vector<std::size_t> touched(nt);
  for (std::size_t k = 0; k < nt; ++k) touched[k] = k;

  constexpr double kEps = 1e-12;
  // Only touched entries are ever set, and they are cleared again before
  // the next round.
  std::vector<char> saturated(nt, 0);
  while (num_active > 0) {
    std::erase_if(touched, [&](std::size_t k) { return load[k] <= kEps; });

    // Bottleneck increment: the smallest per-flow headroom across loaded
    // resources, further limited by the nearest active flow cap.
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t k : touched) inc = std::min(inc, remaining[k] / load[k]);
    if (capped) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (active[f]) inc = std::min(inc, caps[f] - rate[f]);
      }
    }
    SPINELESS_CHECK(std::isfinite(inc));
    inc = std::max(inc, 0.0);

    for (std::size_t k : touched) remaining[k] -= inc * load[k];

    // Freeze every active flow crossing a saturated resource or pinned at
    // its cap. (Tolerance is relative to the original capacity scale.)
    for (std::size_t k : touched) {
      if (remaining[k] <= 1e-9 * std::max(1.0, capacity[k])) saturated[k] = 1;
    }
    bool any_frozen = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!active[f]) continue;
      rate[f] += inc;
      bool freeze =
          capped && rate[f] >= caps[f] - 1e-9 * std::max(1.0, caps[f]);
      if (!freeze) {
        for (int r : flows_[f]) {
          if (saturated[compact(r)]) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        active[f] = 0;
        --num_active;
        any_frozen = true;
        for (int r : flows_[f]) load[compact(r)] -= 1.0;
      }
    }
    SPINELESS_CHECK_MSG(any_frozen || num_active == 0,
                        "water-filling made no progress");
    for (std::size_t k : touched) saturated[k] = 0;
  }
  return rate;
}

bool MaxMinProblem::is_max_min_fair(const std::vector<double>& rates,
                                    double tol) const {
  if (rates.size() != flows_.size()) return false;
  const std::size_t nr = capacity_.size();
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    for (int r : flows_[f]) used[static_cast<std::size_t>(r)] += rates[f];
  }
  // Feasibility.
  for (std::size_t r = 0; r < nr; ++r) {
    if (used[r] > capacity_[r] + tol * std::max(1.0, capacity_[r]))
      return false;
  }
  // Max-min certificate: every flow crosses some saturated resource where
  // no other flow has a strictly larger rate.
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (flows_[f].empty()) continue;
    bool certified = false;
    for (int r : flows_[f]) {
      const auto ri = static_cast<std::size_t>(r);
      if (used[ri] < capacity_[ri] - tol * std::max(1.0, capacity_[ri]))
        continue;  // not saturated
      bool maximal = true;
      for (std::size_t g = 0; g < flows_.size() && maximal; ++g) {
        if (g == f) continue;
        const bool crosses =
            std::find(flows_[g].begin(), flows_[g].end(), r) !=
            flows_[g].end();
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
