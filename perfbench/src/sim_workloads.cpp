// The two step-driven workloads:
//
//   inproc-64k       65 536-particle Plummer sphere, 4 in-process async
//                    ranks, theta 0.4, simd kernel, count balance, dt 1e-3
//                    (bonsai_sim's default configuration at that size).
//   mesh-256k-drift  262 144-particle Plummer sphere with bulk drift 0.5,
//                    4 SPMD worker processes over the socket mesh, theta 0.8.
//
// A run sets up three times (set-up time is the median), steps through a
// fixed warm-up window whose work counters and final state must repeat
// exactly, then times steps for the requested seconds. Force accuracy and
// energy drift are checked after the timed region.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "domain/cluster.hpp"
#include "harness.hpp"
#include "util/ic.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace perfbench {
namespace {

using bonsai::ParticleSet;
using bonsai::domain::ClusterSimulation;
using bonsai::domain::SimConfig;
using bonsai::domain::Simulation;
using bonsai::domain::StepReport;

constexpr int kRanks = 4;
constexpr int kSetupReps = 5;
constexpr int kWindowSteps = 2;          // warm-up: untimed, counted, hashed
constexpr int kUntracedBaselineSteps = 3;  // traced runs: untraced step times
constexpr int kMinTimedSteps = 5;
// Energy drift allowed over a run (a few dozen steps at dt 1e-3), relative
// to the potential energy: a drifting cloud's total energy is near zero.
// Measured up to about 2.4e-6 (README); the bound leaves headroom.
constexpr double kEnergyDriftBound = 3e-5;

struct SimSpec {
  std::size_t n = 0;
  double theta = 0.4;
  double drift = 0.0;
  bool cluster = false;
  std::size_t force_samples = 0;  // direct-summation targets of the check
};

SimSpec spec_for(const std::string& workload) {
  if (workload == "inproc-64k") return {65536, 0.4, 0.0, false, 2048};
  if (workload == "mesh-256k-drift") return {262144, 0.8, 0.5, true, 1024};
  throw std::invalid_argument("unknown workload " + workload);
}

SimConfig config_for(const SimSpec& spec, bool trace) {
  SimConfig cfg;
  cfg.nranks = kRanks;
  cfg.theta = spec.theta;
  cfg.dt = 1e-3;
  cfg.async = true;
  cfg.kernel = bonsai::KernelBackend::kSimd;
  cfg.balance = bonsai::domain::BalanceMode::kCount;
  cfg.trace = trace;
  return cfg;
}

// Seeded Plummer sphere; a drifting cloud gets the same bulk velocity
// bonsai_sim --drift adds.
ParticleSet make_ic(const SimSpec& spec, std::uint64_t seed) {
  ParticleSet ic = bonsai::make_plummer(spec.n, seed);
  for (std::size_t i = 0; i < ic.size(); ++i) {
    ic.vx[i] += spec.drift;
    ic.vy[i] += 0.5 * spec.drift;
    ic.vz[i] += 0.25 * spec.drift;
  }
  return ic;
}

template <typename SimT>
double total_energy(const SimT& sim) {
  return sim.kinetic_energy() + sim.potential_energy();
}

// Steps `sim` `steps` times; every step counts as one attempted operation.
template <typename SimT>
std::vector<StepReport> run_steps(SimT& sim, int steps, Results& r, Spans& spans,
                                  std::vector<double>* wall) {
  std::vector<StepReport> reps;
  for (int s = 0; s < steps; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      Spans::Scope span(spans, std::is_same_v<SimT, ClusterSimulation> ? "ClusterSimulation::step"
                                                                       : "Simulation::step");
      reps.push_back(sim.step());
    }
    if (wall) wall->push_back(seconds_since(t0));
    r.attempt(true, "step");
  }
  return reps;
}

template <typename SimT, typename Make>
void run(const RunOptions& opt, const SimSpec& spec, Make make, Results& r, Spans& spans) {
  // Traced runs first replay the fixed window untraced, so the traced run's
  // work counters and state can be compared with it exactly.
  std::map<std::string, double> ref_counts;
  std::uint64_t ref_hash = 0;
  std::vector<double> untraced_step_s;
  if (opt.trace) {
    std::unique_ptr<SimT> ref = make(config_for(spec, false));
    ref->init(make_ic(spec, opt.seed));
    Spans scratch;
    ref_counts = work_counts(run_steps(*ref, kWindowSteps, r, scratch, nullptr));
    ref_hash = state_hash(ref->gather());
    run_steps(*ref, kUntracedBaselineSteps, r, scratch, &untraced_step_s);
    bonsai::trace::Tracer::instance().set_enabled(true);
  }

  const SimConfig cfg = config_for(spec, opt.trace);
  std::unique_ptr<SimT> sim;
  std::vector<double> setup_s, ic_s, init_s, construct_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sim.reset();  // a cluster shuts its workers down here, outside the timing
    const auto t0 = std::chrono::steady_clock::now();
    ParticleSet ic;
    {
      Spans::Scope span(spans, "setup.ic");
      ic = make_ic(spec, opt.seed);
    }
    ic_s.push_back(seconds_since(t0));
    const auto t1 = std::chrono::steady_clock::now();
    {
      Spans::Scope span(spans, "setup.init");
      sim = make(cfg);
      construct_s.push_back(seconds_since(t1));
      sim->init(std::move(ic));
    }
    init_s.push_back(seconds_since(t1));
    setup_s.push_back(seconds_since(t0));
  }

  const std::vector<StepReport> window = run_steps(*sim, kWindowSteps, r, spans, nullptr);
  const double e_begin = total_energy(*sim);
  const double w_begin = sim->potential_energy();
  r.counts = work_counts(window);
  const std::uint64_t hash = state_hash(sim->gather());
  r.notes["window.state_hash"] = std::to_string(hash);

  std::vector<double> step_s;
  std::vector<StepReport> timed;
  const auto start = std::chrono::steady_clock::now();
  while (seconds_since(start) < opt.seconds || static_cast<int>(step_s.size()) < kMinTimedSteps) {
    std::vector<StepReport> one = run_steps(*sim, 1, r, spans, &step_s);
    one.front().spans.clear();
    timed.push_back(std::move(one.front()));
  }
  const double timed_wall = seconds_since(start);
  const double e_end = total_energy(*sim);

  // Correctness, outside the timed region.
  ParticleSet state = sim->gather();
  const std::vector<double> err =
      force_errors(state, cfg.eps, cfg.dt, spec.force_samples, opt.seed);
  const double err_p50 = median(err);
  const double err_tail = force_err_tail(err);
  r.attempt(err_p50 <= force_err_p50_bound(cfg.theta),
            "force_err.p50 " + std::to_string(err_p50) + " above its envelope");
  r.attempt(err_tail <= force_err_tail_bound(cfg.theta),
            "force_err.tail " + std::to_string(err_tail) + " above its envelope");
  const double drift = std::abs(e_end - e_begin) / std::abs(w_begin);
  char drift_note[32];
  std::snprintf(drift_note, sizeof drift_note, "%.3g", drift);
  r.notes["energy.drift"] = drift_note;
  r.attempt(std::isfinite(drift) && drift <= kEnergyDriftBound,
            "relative energy drift " + std::to_string(drift) + " above its envelope");
  if (opt.trace) {
    for (const auto& [name, value] : ref_counts)
      r.attempt(r.counts[name] == value, name + " differs between the untraced and traced runs");
    r.attempt(hash == ref_hash, "state after the warm-up window differs between the "
                                "untraced and traced runs");
  }
  sim.reset();  // reaps cluster workers, so their peak RSS is visible

  if (!opt.trace) {
    set_median_and_tail(r, "step_s", "s", step_s);
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    r.set("force_err.p50", err_p50, "relative");
    r.set("force_err.tail", err_tail, "relative");
    r.notes["force_err.tail"] = "p95 of " + std::to_string(err.size()) + " targets";
    // A step is the unit a caller of these simulations submits and waits for.
    set_median_and_tail(r, "job_latency_s", "s", step_s);
    r.set("jobs_per_s", static_cast<double>(step_s.size()) / timed_wall, "1/s");
    return;
  }

  const std::size_t threads = static_cast<std::size_t>(kRanks) *
                              bonsai::domain::threads_for(cfg, std::thread::hardware_concurrency());
  set_in_situ_metrics(r, timed, kRanks, threads,
                      spec.cluster ? Overlap::kConcurrent : Overlap::kPipelined);
  for (const auto& [name, value] : r.counts) r.set(name, value, "count");
  r.set("setup.ic_s", median(ic_s), "s");
  r.set("setup.init_s", median(init_s), "s");
  r.set("trace.overhead_frac", median(step_s) / median(untraced_step_s) - 1.0, "fraction");
  if (spec.cluster) r.set("cluster.spawn_s", median(construct_s), "s");

  std::vector<double> let_frame_bytes;
  for (const StepReport& rep : timed)
    for (const auto& s : rep.let_sizes) let_frame_bytes.push_back(static_cast<double>(s.bytes));
  ProbeInput in{std::move(state), cfg, opt.seed, median(let_frame_bytes)};
  run_layer_probes(in, r, spans, opt.sim_binary, opt.scratch_dir,
                   /*measure_spawn=*/!spec.cluster, /*measure_serve=*/true);
}

}  // namespace

void run_sim_workload(const RunOptions& opt, Results& r, Spans& spans) {
  const SimSpec spec = spec_for(opt.workload);
  if (!spec.cluster) {
    run<Simulation>(
        opt, spec, [](const SimConfig& cfg) { return std::make_unique<Simulation>(cfg); }, r,
        spans);
    return;
  }
  run<ClusterSimulation>(
      opt, spec,
      [&opt](const SimConfig& cfg) {
        bonsai::domain::ClusterConfig ccfg;
        ccfg.sim = cfg;
        ccfg.mode = bonsai::domain::ClusterMode::kSpmd;
        ccfg.topology = bonsai::domain::SocketTopology::kMesh;
        ccfg.program = opt.sim_binary;
        return std::make_unique<ClusterSimulation>(ccfg);
      },
      r, spans);
}

}  // namespace perfbench
