// Shared pieces of the benchmark harness: the result record a run fills in,
// the span recorder the traced pass wraps around calls into each layer, and
// the small statistics every workload uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "domain/metrics.hpp"
#include "domain/simulation.hpp"
#include "tree/particle.hpp"

namespace perfbench {

// Everything a workload reports. Metric names follow [A-Za-z0-9_.-].
struct Results {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  // context printed beside metrics
  std::map<std::string, double> counts;      // work counters of the fixed window
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // One operation (a step, a job) or one correctness check.
  void attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

// Spans the benchmark records around its own calls into the library. The
// parent is the span open on the calling thread when the child began.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t begin_ns = 0, end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& s, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  // Median duration in seconds of every span called `name` (0 if none).
  double median_s(const std::string& name) const;
  const std::vector<Span>& all() const { return spans_; }
  // Append the spans another thread recorded (parents re-indexed).
  void absorb(const Spans& other);

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// Run `fn` `reps` times, each inside a span named `name`; returns the median
// duration in seconds.
template <typename F>
double timed_reps(Spans& spans, const std::string& name, int reps, F&& fn) {
  for (int i = 0; i < reps; ++i) {
    Spans::Scope s(spans, name);
    fn();
  }
  return spans.median_s(name);
}

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v);

// The highest percentile with at least ten samples beyond it (the tail the
// benchmark reports), as a fraction in [0.5, 1): p50 below 20 samples.
double tail_quantile(std::size_t samples);

// Median and tail of `samples` under `name` / `name.tail`, with the tail's
// percentile and the sample count recorded as notes.
void set_median_and_tail(Results& r, const std::string& name, const std::string& unit,
                         const std::vector<double>& samples);

// A counter of a metrics scrape, 0 when the server never incremented it.
double scraped_counter(const bonsai::metrics::Snapshot& m, const std::string& name);

// Peak resident set of this process plus that of its largest reaped child
// (cluster workers), in MiB.
double peak_rss_mb();

// Order-sensitive hash of every particle field, for bitwise state checks.
std::uint64_t state_hash(const bonsai::ParticleSet& p);

// Relative tree-force errors against direct summation for `samples` targets
// drawn with `seed`. `state` holds positions after the final kick-drift and
// the accelerations computed before it, so positions are stepped back by
// dt*v to where the forces were evaluated.
std::vector<double> force_errors(const bonsai::ParticleSet& state, double eps, double dt,
                                 std::size_t samples, std::uint64_t seed);

// The force-error tail: p95, a fixed percentile of a sample of about a
// thousand targets or more, steadier than the furthest percentile with ten
// samples beyond it that the timings use.
double force_err_tail(const std::vector<double>& errors);

// Upper envelopes for the median and the tail of the relative force error at
// opening angle theta (fitted from the measured error plus headroom).
double force_err_p50_bound(double theta);
double force_err_tail_bound(double theta);

// Everything the isolated layer probes need from a workload.
struct ProbeInput {
  bonsai::ParticleSet state;        // captured global state, sorted by id
  bonsai::domain::SimConfig cfg;    // the workload's configuration
  std::uint64_t seed = 0;
  double let_frame_bytes = 0.0;     // median LET frame of the run (sizes the
                                    // transport probes)
};

// Time every layer in isolation on the captured state (sfc, tree, let, wire,
// transport, decomposition, kernel ceiling, cluster spawn, serve round trip)
// and record the per-layer metrics those probes own. `sim_binary` is the
// bonsai_sim executable; `spool_dir` a scratch directory for the job server.
void run_layer_probes(const ProbeInput& in, Results& r, Spans& spans,
                      const std::string& sim_binary, const std::string& spool_dir,
                      bool measure_spawn, bool measure_serve);

// How a run's rank stages overlap, which decides what a step waited for:
//   kPipelined   in-process async lanes: domain update and particle exchange
//                plus the pipeline model's critical path
//   kConcurrent  worker processes (no lane model): the sum of per-stage
//                maxima over ranks
//   kSequential  lockstep ranks, one after another: every rank's stage time
enum class Overlap { kPipelined, kConcurrent, kSequential };

// In-situ per-layer metrics from the step reports of a run (medians over
// steps; stage times are maxima over ranks). step.unattributed_s is the step's
// wall time minus the stage time it waited for under `overlap`.
void set_in_situ_metrics(Results& r, const std::vector<bonsai::domain::StepReport>& reps,
                         int nranks, std::size_t total_threads, Overlap overlap);

// Work counters summed over `reps`, the ones that must repeat exactly.
std::map<std::string, double> work_counts(const std::vector<bonsai::domain::StepReport>& reps);

// Measured FMA+sqrt ceiling of one core, in Gflop/s (peak.cpp).
double measure_peak_gflops(double seconds);

// Workload entry points.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sim_binary;
  std::string scratch_dir;
};
void run_sim_workload(const RunOptions& opt, Results& r, Spans& spans);
void run_serve_workload(const RunOptions& opt, Results& r, Spans& spans);

}  // namespace perfbench
