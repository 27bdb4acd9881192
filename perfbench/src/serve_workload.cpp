// serve-jobs: an in-process JobServer with one rank slot per hardware thread,
// driven in a closed loop by two clients. Each client submits a job, waits
// for its result, and only then submits the next. Jobs are 4-step Plummer
// runs; two of every three have 16 384 particles and the third 4 096, each
// with its own seeded initial conditions, and every fourth job has priority
// 1. Every job asks for the whole pool, so a priority-1 submit finds its
// slots taken and preempts the running job, which checkpoints to the spool
// and later resumes.
//
// Set-up is server start-up plus a first small job's round trip (the server
// is not ready to serve until it has). Traced runs replay the last 16k job in
// process with the server's job configuration, untraced and traced: both
// replays must reproduce the server's result bit for bit and its work
// counters exactly, and their step reports give the in-situ layer numbers.
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "domain/simulation.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/ic.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace perfbench {
namespace {

namespace wire = bonsai::domain::wire;
using bonsai::domain::SimConfig;
using bonsai::domain::StepReport;

constexpr int kClients = 2;
constexpr int kSetupReps = 5;
constexpr int kJobSteps = 4;
constexpr std::size_t kForceSamplesPerJob = 64;
constexpr std::uint64_t kLargeJob = 16384;
const char* const kHost = "127.0.0.1";

wire::JobSpec job_spec(std::uint64_t seed, int j, int pool_slots) {
  wire::JobSpec spec;
  spec.name = "bench-" + std::to_string(j);
  spec.n = j % 3 == 2 ? 4096 : kLargeJob;
  spec.seed = bonsai::hash64(seed * 7919 + static_cast<std::uint64_t>(j));
  spec.steps = kJobSteps;
  spec.priority = j % 4 == 3 ? 1 : 0;
  spec.ranks = pool_slots;
  return spec;
}

// One job as its client saw it; the result is checked, then dropped.
struct JobRecord {
  wire::JobSpec spec;
  std::int32_t id = -1;
  double submit_s = 0.0, wait_s = 0.0, latency_s = 0.0, done_at_s = 0.0;
  bool ok = false;
  std::vector<double> force_errors;
  double result_bytes = 0.0;
};

// A completed job with the requested steps, particles and finite values.
bool valid_result(const wire::JobSpec& spec, const wire::JobResultMsg& res) {
  bool ok = res.state == wire::JobState::kCompleted && res.steps_done == spec.steps &&
            res.parts.size() == spec.n && std::isfinite(res.kinetic + res.potential);
  for (std::size_t i = 0; ok && i < res.parts.size(); ++i)
    ok = std::isfinite(res.parts.x[i] + res.parts.ax[i]);
  return ok;
}

// The configuration JobServer::run_job gives a job of `ranks` ranks.
SimConfig server_job_config(const wire::JobSpec& spec, int ranks, bool trace) {
  SimConfig cfg;
  cfg.nranks = ranks;
  cfg.theta = spec.theta;
  cfg.eps = spec.eps;
  cfg.dt = spec.dt;
  cfg.kernel = spec.kernel;
  cfg.async = false;
  cfg.threads_per_rank = 1;
  cfg.balance = bonsai::domain::BalanceMode::kCount;
  cfg.trace = trace;
  return cfg;
}

// The work counters of one server job, from the metrics scrape.
std::map<std::string, double> job_counts(const bonsai::metrics::Snapshot& m, int id) {
  const auto c = [&](const std::string& name) {
    return scraped_counter(m, bonsai::serve::with_job_label(name, id));
  };
  return {{"tree.interactions", c("gravity.local.p2p") + c("gravity.local.p2c") +
                                    c("gravity.remote.p2p") + c("gravity.remote.p2c")},
          {"let.cells", c("step.let_cells")},
          {"wire.let_bytes", c("wire.let.bytes")},
          {"decomposition.migrated", c("step.migrated")}};
}

}  // namespace

void run_serve_workload(const RunOptions& opt, Results& r, Spans& spans) {
  bonsai::serve::ServerConfig scfg;
  scfg.limits.pool_slots = static_cast<int>(std::thread::hardware_concurrency());
  scfg.spool_dir = opt.scratch_dir;

  std::unique_ptr<bonsai::serve::JobServer> server;
  std::vector<double> setup_s, start_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->shutdown();
    server.reset();
    const auto t0 = std::chrono::steady_clock::now();
    {
      Spans::Scope span(spans, "setup.init");
      server = std::make_unique<bonsai::serve::JobServer>(scfg);
    }
    start_s.push_back(seconds_since(t0));
    wire::JobSpec warm;
    warm.n = 4096;
    warm.seed = opt.seed;
    warm.steps = 1;
    const auto st = bonsai::serve::submit_job(kHost, server->port(), warm);
    const auto res = bonsai::serve::wait_job(kHost, server->port(), st.job_id);
    setup_s.push_back(seconds_since(t0));
    r.attempt(res.state == wire::JobState::kCompleted, "warm-up job did not complete");
  }
  if (opt.trace) bonsai::trace::Tracer::instance().set_enabled(true);

  const std::uint16_t port = server->port();
  std::atomic<int> next_job{0};
  std::mutex mu;
  std::vector<JobRecord> records;
  JobRecord last_large;  // the last completed 16k job, replayed when traced
  wire::JobResultMsg last_large_result;
  std::vector<std::string> client_errors;
  std::vector<Spans> client_spans(kClients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Spans& my_spans = client_spans[static_cast<std::size_t>(c)];
      try {
        while (seconds_since(start) < opt.seconds) {
          JobRecord rec;
          rec.spec = job_spec(opt.seed, next_job++, scfg.limits.pool_slots);
          const auto t0 = std::chrono::steady_clock::now();
          wire::JobStatusMsg st;
          {
            Spans::Scope span(my_spans, "serve::submit_job");
            st = bonsai::serve::submit_job(kHost, port, rec.spec);
          }
          rec.submit_s = seconds_since(t0);
          rec.id = st.job_id;
          wire::JobResultMsg res;
          if (st.state != wire::JobState::kRejected) {
            const auto t1 = std::chrono::steady_clock::now();
            Spans::Scope span(my_spans, "serve::wait_job");
            res = bonsai::serve::wait_job(kHost, port, st.job_id);
            rec.wait_s = seconds_since(t1);
          }
          rec.latency_s = seconds_since(t0);
          rec.done_at_s = seconds_since(start);
          // Checked before the client's next submit, outside the job's latency.
          rec.ok = valid_result(rec.spec, res);
          if (rec.ok) {
            rec.force_errors = force_errors(res.parts, rec.spec.eps, rec.spec.dt,
                                            kForceSamplesPerJob, rec.spec.seed);
            rec.result_bytes = static_cast<double>(wire::encode_job_result(res).size());
          }
          std::lock_guard<std::mutex> lk(mu);
          if (rec.ok && rec.spec.n == kLargeJob && rec.done_at_s >= last_large.done_at_s) {
            last_large = rec;
            last_large_result = std::move(res);
          }
          records.push_back(std::move(rec));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu);
        client_errors.push_back(std::string("client stopped: ") + e.what());
      }
    });
  for (std::thread& t : clients) t.join();
  for (const std::string& e : client_errors) r.attempt(false, e);
  for (const Spans& s : client_spans) spans.absorb(s);
  const bonsai::metrics::Snapshot scrape = bonsai::serve::fetch_metrics(kHost, port);

  std::vector<double> latency, submit, wait, result_bytes, step_s, errors;
  double last_done = 0.0;
  for (const JobRecord& rec : records) {
    r.attempt(rec.ok, "job " + std::to_string(rec.id) + " failed, was rejected or is malformed");
    if (!rec.ok) continue;
    errors.insert(errors.end(), rec.force_errors.begin(), rec.force_errors.end());
    latency.push_back(rec.latency_s);
    submit.push_back(rec.submit_s);
    wait.push_back(rec.wait_s);
    result_bytes.push_back(rec.result_bytes);
    const auto it = scrape.gauges.find(bonsai::serve::with_job_label("step.elapsed_s", rec.id));
    if (rec.spec.n == kLargeJob && it != scrape.gauges.end()) step_s.push_back(it->second);
    last_done = std::max(last_done, rec.done_at_s);
  }
  const double err_p50 = median(errors);
  const double err_tail = force_err_tail(errors);
  r.attempt(err_p50 <= force_err_p50_bound(0.4), "force_err.p50 above its envelope");
  r.attempt(err_tail <= force_err_tail_bound(0.4), "force_err.tail above its envelope");
  r.attempt(last_large.id >= 0, "no 16k job completed");

  if (!opt.trace) {
    server->shutdown();
    server.reset();
    set_median_and_tail(r, "step_s", "s", step_s);
    r.notes["step_s"] = "server-side wall time of the last step of each 16k job";
    r.set("setup_s", median(setup_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    r.set("force_err.p50", err_p50, "relative");
    r.set("force_err.tail", err_tail, "relative");
    set_median_and_tail(r, "job_latency_s", "s", latency);
    r.set("jobs_per_s", static_cast<double>(latency.size()) / last_done, "1/s");
    return;
  }

  if (last_large.id < 0) return;
  r.set("serve.submit_rtt_s", median(submit), "s");
  r.set("serve.wait_s", median(wait), "s");
  r.set("serve.result_bytes", median(result_bytes), "B");
  r.set("serve.preemptions", scraped_counter(scrape, "server.jobs.preempted"), "count");
  r.set("serve.rejected", scraped_counter(scrape, "server.jobs.rejected"), "count");
  r.set("setup.init_s", median(start_s), "s");
  const int ranks = bonsai::serve::job_status(kHost, port, last_large.id).ranks;
  server->shutdown();
  server.reset();

  // Replays of the last 16k job: untraced, then traced.
  std::vector<double> ic_s;
  bonsai::ParticleSet replayed[2];
  std::vector<StepReport> reports[2];
  std::vector<double> replay_step_s[2];
  for (int traced = 0; traced < 2; ++traced) {
    bonsai::trace::Tracer::instance().set_enabled(traced == 1);
    bonsai::domain::Simulation sim(server_job_config(last_large.spec, ranks, traced == 1));
    const auto t0 = std::chrono::steady_clock::now();
    bonsai::ParticleSet ic = bonsai::make_plummer(last_large.spec.n, last_large.spec.seed);
    ic_s.push_back(seconds_since(t0));
    sim.init(std::move(ic));
    for (int s = 0; s < kJobSteps; ++s) {
      const auto t1 = std::chrono::steady_clock::now();
      Spans::Scope span(spans, traced ? "Simulation::step" : "Simulation::step.untraced");
      reports[traced].push_back(sim.step());
      replay_step_s[traced].push_back(seconds_since(t1));
    }
    replayed[traced] = sim.gather();
  }
  const std::uint64_t served = state_hash(last_large_result.parts);
  r.attempt(state_hash(replayed[0]) == served, "untraced replay differs from the served result");
  r.attempt(state_hash(replayed[1]) == served, "traced replay differs from the served result");
  r.counts = work_counts(reports[1]);
  const auto untraced_counts = work_counts(reports[0]);
  for (const auto& [name, value] : job_counts(scrape, last_large.id)) {
    r.attempt(r.counts[name] == value, name + " differs between the server and the replay");
    r.attempt(untraced_counts.at(name) == value,
              name + " differs between the server and the untraced replay");
  }
  for (const auto& [name, value] : r.counts) r.set(name, value, "count");
  set_in_situ_metrics(r, reports[1], ranks, static_cast<std::size_t>(ranks),
                      Overlap::kSequential);
  r.set("setup.ic_s", median(ic_s), "s");
  r.set("trace.overhead_frac",
        median(replay_step_s[1]) / median(replay_step_s[0]) - 1.0, "fraction");

  std::vector<double> let_frame_bytes;
  for (const StepReport& rep : reports[1])
    for (const auto& s : rep.let_sizes) let_frame_bytes.push_back(static_cast<double>(s.bytes));
  ProbeInput in{replayed[1], server_job_config(last_large.spec, ranks, false), opt.seed,
                median(let_frame_bytes)};
  run_layer_probes(in, r, spans, opt.sim_binary, opt.scratch_dir, /*measure_spawn=*/true,
                   /*measure_serve=*/false);
}

}  // namespace perfbench
