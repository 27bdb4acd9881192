#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>

#include "tree/direct.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {

Spans::Scope::Scope(Spans& s, std::string name) : spans_(s) {
  index_ = static_cast<int>(s.spans_.size());
  s.spans_.push_back({std::move(name), bonsai::now_ns(), 0, s.open_});
  s.open_ = index_;
}

Spans::Scope::~Scope() {
  Span& span = spans_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = bonsai::now_ns();
  spans_.open_ = span.parent;
}

double Spans::median_s(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_)
    if (s.name == name && s.end_ns >= s.begin_ns)
      d.push_back(static_cast<double>(s.end_ns - s.begin_ns) * 1e-9);
  return median(std::move(d));
}

void Spans::absorb(const Spans& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

double median(std::vector<double> v) { return bonsai::percentile(std::move(v), 0.5); }

double tail_quantile(std::size_t samples) {
  if (samples < 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(samples);
}

void set_median_and_tail(Results& r, const std::string& name, const std::string& unit,
                         const std::vector<double>& samples) {
  const double q = tail_quantile(samples.size());
  r.set(name, median(samples), unit);
  r.set(name + ".tail", bonsai::percentile(samples, q), unit);
  char note[64];
  std::snprintf(note, sizeof note, "p%d of %zu samples", static_cast<int>(std::floor(q * 100.0)),
                samples.size());
  r.notes[name + ".tail"] = note;
}

double scraped_counter(const bonsai::metrics::Snapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::uint64_t state_hash(const bonsai::ParticleSet& p) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the raw bytes
  auto mix = [&h](const auto& v) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(v[0]); ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  };
  mix(p.x), mix(p.y), mix(p.z), mix(p.vx), mix(p.vy), mix(p.vz);
  mix(p.ax), mix(p.ay), mix(p.az), mix(p.pot), mix(p.mass), mix(p.id);
  return h;
}

std::vector<double> force_errors(const bonsai::ParticleSet& state, double eps, double dt,
                                 std::size_t samples, std::uint64_t seed) {
  bonsai::ParticleSet at_force = state;
  for (std::size_t i = 0; i < at_force.size(); ++i) {
    at_force.x[i] -= at_force.vx[i] * dt;
    at_force.y[i] -= at_force.vy[i] * dt;
    at_force.z[i] -= at_force.vz[i] * dt;
  }
  std::vector<std::uint32_t> targets;
  bonsai::Xoshiro256 rng(seed ^ 0x5eedf0ce5ull);
  const std::size_t n = at_force.size();
  for (std::size_t i = 0; i < std::min(samples, n); ++i)
    targets.push_back(static_cast<std::uint32_t>(rng() % n));
  // Direct summation over disjoint target slices in parallel (each call
  // writes only its own targets' forces).
  const std::size_t nthreads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t chunk = (targets.size() + nthreads - 1) / nthreads;
  std::vector<std::thread> workers;
  for (std::size_t b = 0; b < targets.size(); b += chunk)
    workers.emplace_back([&, b] {
      const std::span<const std::uint32_t> mine(targets.data() + b,
                                                std::min(chunk, targets.size() - b));
      bonsai::direct_forces_subset(at_force, eps, mine);
    });
  for (std::thread& w : workers) w.join();
  std::vector<double> err;
  for (const std::uint32_t i : targets)
    err.push_back(bonsai::norm(state.acc(i) - at_force.acc(i)) /
                  std::max(bonsai::norm(at_force.acc(i)), 1e-300));
  return err;
}

double force_err_tail(const std::vector<double>& errors) {
  return bonsai::percentile(errors, 0.95);
}

// Fitted once from the errors measured on every workload (README,
// "Correctness checks"): about three times the largest median and tail seen
// at theta 0.4 (inproc-64k, serve-jobs) and 0.8 (mesh-256k-drift).
double force_err_p50_bound(double theta) { return theta <= 0.5 ? 1.5e-4 : 1.5e-3; }
double force_err_tail_bound(double theta) { return theta <= 0.5 ? 6e-4 : 5e-3; }

std::map<std::string, double> work_counts(const std::vector<bonsai::domain::StepReport>& reps) {
  std::map<std::string, double> c;
  for (const auto& rep : reps) {
    const bonsai::InteractionStats s = rep.stats();
    c["tree.interactions"] += static_cast<double>(s.p2p + s.p2c);
    c["let.cells"] += static_cast<double>(rep.let_cells);
    c["let.particles"] += static_cast<double>(rep.let_particles);
    c["wire.let_bytes"] += static_cast<double>(rep.let_wire.bytes);
    c["decomposition.migrated"] += static_cast<double>(rep.migrated);
    for (const auto& t : rep.traffic) {
      c["transport.frames"] += static_cast<double>(t.frames);
      c["transport.bytes"] += static_cast<double>(t.bytes);
    }
  }
  return c;
}

void set_in_situ_metrics(Results& r, const std::vector<bonsai::domain::StepReport>& reps,
                         int nranks, std::size_t total_threads, Overlap overlap) {
  std::map<std::string, std::vector<double>> v;
  for (const auto& rep : reps) {
    const auto& mx = rep.max_times;
    const auto& sum = rep.sum_times;
    v["sfc.sort_s"].push_back(mx.get("Sorting SFC"));
    v["tree.build_s"].push_back(mx.get("Tree-construction"));
    v["tree.properties_s"].push_back(mx.get("Tree-properties"));
    const double g_max = mx.get("Gravity local") + mx.get("Gravity remote");
    const double g_sum = sum.get("Gravity local") + sum.get("Gravity remote");
    v["gravity.local_s"].push_back(mx.get("Gravity local"));
    v["gravity.remote_s"].push_back(mx.get("Gravity remote"));
    v["gravity.imbalance"].push_back(g_sum > 0.0 ? g_max / (g_sum / std::max(nranks, 1)) : 1.0);
    v["gravity.app_gflops"].push_back(bonsai::gflops_rate(rep.stats().flops(), rep.elapsed));
    v["kernel.fill_ratio"].push_back(rep.stats().fill_ratio());
    v["let.export_s"].push_back(mx.get("Exchange LET"));
    v["wire.encode_s"].push_back(mx.get("Wire encode"));
    v["wire.decode_s"].push_back(mx.get("Wire decode"));
    v["decomposition.update_s"].push_back(mx.get("Domain update"));
    v["decomposition.exchange_s"].push_back(mx.get("Exchange particles"));
    v["schedule.overlap_efficiency"].push_back(rep.overlap_efficiency());
    v["schedule.critical_path_s"].push_back(rep.critical_path);
    v["device.busy_frac"].push_back(sum.total() /
                                    (rep.elapsed * static_cast<double>(total_threads)));
    const double attributed =
        overlap == Overlap::kPipelined
            ? mx.get("Domain update") + mx.get("Exchange particles") + rep.critical_path
        : overlap == Overlap::kConcurrent ? mx.total()
                                          : sum.total();
    v["step.unattributed_s"].push_back(rep.elapsed - attributed);
  }
  for (const auto& [name, samples] : v)
    r.set(name, median(samples),
          name.ends_with("_s")           ? "s"
          : name.ends_with("gflops")     ? "Gflop/s"
          : name.ends_with("_frac")      ? "fraction"
                                         : "ratio");
}

}  // namespace perfbench
