#include "util/rng.h"

#include <cmath>
#include <unordered_set>

namespace spineless {

double Rng::pareto(double alpha, double xm) noexcept {
  // Inverse CDF: x = xm / U^(1/alpha), U in (0,1].
  double u = 1.0 - uniform_real();  // (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::pareto_with_mean(double alpha, double mean) noexcept {
  // mean = alpha * xm / (alpha - 1)  =>  xm = mean * (alpha - 1) / alpha.
  const double xm = mean * (alpha - 1.0) / alpha;
  return pareto(alpha, xm);
}

double Rng::exponential(double mean) noexcept {
  double u = 1.0 - uniform_real();  // (0, 1]
  return -mean * std::log(u);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  SPINELESS_CHECK_MSG(k <= n, "sample k=" << k << " from n=" << n);
  if (k * 3 >= n) {
    // Dense: shuffle a full index vector and truncate.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    shuffle(idx);
    idx.resize(k);
    return idx;
  }
  // Sparse: rejection sampling.
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    const std::size_t v = uniform(n);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  SPINELESS_CHECK(n > 0);
  prob_.resize(n);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    sum += prob_[i];
  }
  for (double& p : prob_) p /= sum;
}

}  // namespace spineless
