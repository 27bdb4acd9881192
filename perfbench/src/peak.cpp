// The host's FMA+sqrt ceiling for one core: the p-p interaction's arithmetic
// (4 sub, 3 mul, 6 fma, 1 rsqrt counted as 4 flops: 23 flops, util/flops.hpp)
// over L1-resident sources, compiled for AVX-512, AVX2+FMA and a portable
// fallback and dispatched on the running CPU. No memory traffic, no walk, no
// batch padding: what a perfect p-p drain would reach on this core.
#include <chrono>
#include <cmath>
#include <vector>

#include "harness.hpp"
#include "util/flops.hpp"

namespace perfbench {
namespace {

constexpr int kSources = 512;
constexpr int kTargets = 64;

__attribute__((target_clones("avx512f", "avx2,fma", "default")))
double pp_pass(const double* x, const double* y, const double* z, const double* m,
               double eps2) {
  double sink = 0.0;
  for (int t = 0; t < kTargets; ++t) {
    const double tx = x[t] + 0.5, ty = y[t] - 0.25, tz = z[t] + 0.125;
    double ax = 0.0, ay = 0.0, az = 0.0, pot = 0.0;
#pragma omp simd reduction(+ : ax, ay, az, pot)
    for (int j = 0; j < kSources; ++j) {
      const double dx = x[j] - tx, dy = y[j] - ty, dz = z[j] - tz;
      const double r2 = std::fma(dz, dz, std::fma(dy, dy, std::fma(dx, dx, eps2)));
      const double rinv = 1.0 / std::sqrt(r2);
      const double mrinv = m[j] * rinv;
      const double mrinv3 = mrinv * rinv * rinv;
      ax = std::fma(dx, mrinv3, ax);
      ay = std::fma(dy, mrinv3, ay);
      az = std::fma(dz, mrinv3, az);
      pot -= mrinv;
    }
    sink += ax + ay + az + pot;
  }
  return sink;
}

}  // namespace

double measure_peak_gflops(double seconds) {
  std::vector<double> x(kSources), y(kSources), z(kSources), m(kSources, 1.0 / kSources);
  for (int j = 0; j < kSources; ++j) {
    x[j] = std::sin(0.37 * j);
    y[j] = std::cos(0.61 * j);
    z[j] = std::sin(1.13 * j + 0.5);
  }
  constexpr double kFlopsPerPass =
      static_cast<double>(bonsai::kFlopsPerPP) * kTargets * kSources;
  volatile double sink = 0.0;
  std::vector<double> rates;
  const auto start = std::chrono::steady_clock::now();
  while (rates.size() < 5 || seconds_since(start) < seconds) {
    constexpr int kPasses = 64;
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < kPasses; ++p)
      sink = sink + pp_pass(x.data(), y.data(), z.data(), m.data(), 1e-4);
    rates.push_back(kFlopsPerPass * kPasses / seconds_since(t0) * 1e-9);
  }
  return median(std::move(rates));
}

}  // namespace perfbench
