// Isolated layer probes. Each one times a public library call on state
// captured from the workload's own run, inside a span named after the call:
// the final particle state is cut into key-ordered slices like the ranks',
// and slice 0 plays the rank whose tree, LET and frames are timed.
#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "domain/cluster.hpp"
#include "domain/decomposition.hpp"
#include "domain/let.hpp"
#include "domain/transport.hpp"
#include "domain/wire.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tree/octree.hpp"
#include "tree/traverse.hpp"
#include "util/ic.hpp"

namespace perfbench {
namespace {

using bonsai::ParticleSet;
namespace domain = bonsai::domain;
namespace wire = bonsai::domain::wire;

constexpr int kReps = 5;

// The particles of `keep` (indices into `from`), in `from`'s order.
ParticleSet subset(const ParticleSet& from, const std::vector<std::uint8_t>& keep) {
  ParticleSet out;
  for (std::size_t i = 0; i < from.size(); ++i)
    if (keep[i]) out.add(from.get(i));
  return out;
}

// Pure p-p source (one particle leaf the MAC can never accept) and pure p-c
// source (an unacceptable root over multipole leaves), as in bench_kernels.
std::vector<bonsai::TreeNode> pp_tree(const ParticleSet& parts) {
  bonsai::TreeNode root;
  root.kind = bonsai::NodeKind::kParticleLeaf;
  root.part_end = static_cast<std::uint32_t>(parts.size());
  root.rcrit = 1e30;
  return {root};
}

std::vector<bonsai::TreeNode> pc_tree(const ParticleSet& parts, std::uint32_t ncells) {
  std::vector<bonsai::TreeNode> nodes(1);
  nodes[0].kind = bonsai::NodeKind::kInternal;
  nodes[0].part_end = static_cast<std::uint32_t>(parts.size());
  nodes[0].first_child = 1;
  nodes[0].num_children = static_cast<std::uint8_t>(ncells);
  nodes[0].rcrit = 1e30;
  const auto n = static_cast<std::uint32_t>(parts.size());
  const std::uint32_t slice = (n + ncells - 1) / ncells;
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const std::uint32_t begin = std::min(n, c * slice), end = std::min(n, begin + slice);
    bonsai::TreeNode cell;
    cell.kind = bonsai::NodeKind::kMultipoleLeaf;
    cell.level = 1;
    for (std::uint32_t i = begin; i < end; ++i) {
      cell.mp.com = cell.mp.com + parts.pos(i) * parts.mass[i];
      cell.mp.mass += parts.mass[i];
    }
    if (cell.mp.mass > 0.0) cell.mp.com = cell.mp.com * (1.0 / cell.mp.mass);
    for (std::uint32_t i = begin; i < end; ++i)
      cell.mp.quad.add_outer(parts.pos(i) - cell.mp.com, parts.mass[i]);
    nodes.push_back(cell);
  }
  return nodes;
}

// Single-thread drain rate (useful Gflop/s) of one backend on one source.
double drain_gflops(const std::vector<bonsai::TreeNode>& nodes, ParticleSet& targets,
                    const std::vector<bonsai::TargetGroup>& groups,
                    bonsai::KernelBackend backend, bool self, Spans& spans,
                    const std::string& name) {
  const bonsai::TreeView src{nodes, targets.x, targets.y, targets.z, targets.mass};
  bonsai::TraversalConfig config;
  config.backend = backend;
  config.eps = 1e-2;
  bonsai::InteractionQueue queue;
  bonsai::traverse_groups_batched(src, targets, groups, config, self, queue);  // warm-up
  std::vector<double> rates;
  const auto start = std::chrono::steady_clock::now();
  while (rates.size() < 3 || seconds_since(start) < 0.3) {
    targets.zero_forces();
    const auto t0 = std::chrono::steady_clock::now();
    bonsai::InteractionStats stats;
    {
      Spans::Scope span(spans, name);
      stats = bonsai::traverse_groups_batched(src, targets, groups, config, self, queue);
    }
    rates.push_back(bonsai::gflops_rate(stats.flops(), seconds_since(t0)));
  }
  return median(std::move(rates));
}

void kernel_probes(Results& r, Spans& spans, std::uint64_t seed) {
  ParticleSet parts = bonsai::make_plummer(4096, seed);
  const auto groups = bonsai::make_groups(parts, 64);
  const auto pp = pp_tree(parts);
  const auto pc = pc_tree(parts, 192);
  for (const auto backend : {bonsai::KernelBackend::kScalar, bonsai::KernelBackend::kSimd,
                             bonsai::KernelBackend::kSimdFloat}) {
    const std::string b = bonsai::kernel_backend_name(backend);
    r.set("kernel.pp." + b + ".gflops",
          drain_gflops(pp, parts, groups, backend, true, spans, "drain.pp." + b), "Gflop/s");
    r.set("kernel.pc." + b + ".gflops",
          drain_gflops(pc, parts, groups, backend, false, spans, "drain.pc." + b), "Gflop/s");
  }
  double peak;
  {
    Spans::Scope span(spans, "kernel.peak");
    peak = measure_peak_gflops(0.3);
  }
  r.set("kernel.peak.gflops", peak, "Gflop/s");
  r.set("kernel.pp.simd.peak_frac", r.metrics["kernel.pp.simd.gflops"].value / peak, "fraction");
  r.set("kernel.pc.simd.peak_frac", r.metrics["kernel.pc.simd.gflops"].value / peak, "fraction");
  // Computed, not measured: the simd p-p drain loads x, y, z, m (four
  // doubles) of a staged source for every target lane it meets.
  r.set("kernel.pp.flops_per_byte",
        static_cast<double>(bonsai::kFlopsPerPP) / (4.0 * sizeof(double)), "flop/B");
}

// Median round trip of a `bytes`-sized frame between endpoints a (rank 0)
// and b (rank 1), plus one-way bandwidth over bursts of frames.
struct LinkProbe {
  double rtt_s = 0.0;
  double mb_s = 0.0;
};

std::vector<std::uint8_t> recv_or_throw(domain::Transport& t, int dst) {
  std::optional<std::vector<std::uint8_t>> frame = t.recv(dst);
  if (!frame) throw std::runtime_error("transport probe: link closed: " + t.close_reason());
  return std::move(*frame);
}

LinkProbe probe_link(domain::Transport& a, domain::Transport& b, std::size_t bytes,
                     Spans& spans, const std::string& name) {
  constexpr int kRoundTrips = 20, kBursts = 3, kBurstFrames = 8;
  std::exception_ptr echo_error;
  std::thread echo([&] {
    try {
      for (int i = 0; i < kRoundTrips; ++i) b.post(1, 0, recv_or_throw(b, 1));
      for (int i = 0; i < kBursts; ++i) {
        for (int f = 0; f < kBurstFrames; ++f) recv_or_throw(b, 1);
        b.post(1, 0, std::vector<std::uint8_t>(1));
      }
    } catch (...) {
      echo_error = std::current_exception();
      a.close(0);  // unblock the prober
    }
  });
  std::vector<double> mb_s;
  try {
    std::vector<std::uint8_t> frame(bytes, 0x5a);
    for (int i = 0; i < kRoundTrips; ++i) {
      Spans::Scope span(spans, name + ".rtt");
      a.post(0, 1, std::move(frame));
      frame = recv_or_throw(a, 0);
    }
    for (int i = 0; i < kBursts; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      {
        Spans::Scope span(spans, name + ".burst");
        for (int f = 0; f < kBurstFrames; ++f) a.post(0, 1, frame);
        recv_or_throw(a, 0);
      }
      mb_s.push_back(static_cast<double>(bytes) * kBurstFrames / seconds_since(t0) * 1e-6);
    }
  } catch (...) {
    b.close(1);  // unblock the echo thread before joining it
    echo.join();
    throw;
  }
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  return {spans.median_s(name + ".rtt"), median(std::move(mb_s))};
}

void transport_probes(Results& r, Spans& spans, std::size_t bytes) {
  {
    domain::InProcTransport t(2);
    r.set("transport.inproc.rtt_s", probe_link(t, t, bytes, spans, "InProcTransport").rtt_s,
          "s");
  }
  // Two workers on the socket mesh, connected the way cluster workers are.
  auto coord = domain::SocketTransport::listen(0, 2, domain::SocketTopology::kMesh);
  std::vector<std::unique_ptr<domain::SocketTransport>> workers(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> connectors;
  for (int w = 0; w < 2; ++w)
    connectors.emplace_back([&, w] {
      const auto i = static_cast<std::size_t>(w);
      try {
        workers[i] = domain::SocketTransport::connect_mesh("127.0.0.1", coord->port(), w, 0);
        workers[i]->mesh_with_peers(30000);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  try {
    coord->accept_workers(30000);
  } catch (...) {
    for (std::thread& t : connectors) t.join();
    throw;
  }
  for (std::thread& t : connectors) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  const LinkProbe socket = probe_link(*workers[0], *workers[1], bytes, spans, "SocketTransport");
  r.set("transport.socket.rtt_s", socket.rtt_s, "s");
  r.set("transport.socket.mb_s", socket.mb_s, "MB/s");
}

void spawn_probe(Results& r, Spans& spans, const domain::SimConfig& cfg,
                 const std::string& sim_binary) {
  domain::ClusterConfig ccfg;
  ccfg.sim = cfg;
  ccfg.sim.nranks = 4;
  ccfg.mode = domain::ClusterMode::kSpmd;
  ccfg.topology = domain::SocketTopology::kMesh;
  ccfg.program = sim_binary;
  for (int i = 0; i < 3; ++i) {
    std::unique_ptr<domain::ClusterSimulation> c;  // shut down outside the span
    Spans::Scope span(spans, "ClusterSimulation::ClusterSimulation");
    c = std::make_unique<domain::ClusterSimulation>(ccfg);
  }
  r.set("cluster.spawn_s", spans.median_s("ClusterSimulation::ClusterSimulation"), "s");
}

void serve_probe(Results& r, Spans& spans, std::uint64_t seed, const std::string& spool_dir) {
  bonsai::serve::ServerConfig scfg;
  scfg.limits.pool_slots = static_cast<int>(std::thread::hardware_concurrency());
  scfg.spool_dir = spool_dir;
  bonsai::serve::JobServer server(scfg);
  std::vector<double> submit, wait, bytes;
  for (int i = 0; i < 3; ++i) {
    wire::JobSpec spec;
    spec.n = 4096;
    spec.seed = seed + static_cast<std::uint64_t>(i);
    spec.steps = 1;
    const auto t0 = std::chrono::steady_clock::now();
    wire::JobStatusMsg st;
    {
      Spans::Scope span(spans, "serve::submit_job");
      st = bonsai::serve::submit_job("127.0.0.1", server.port(), spec);
    }
    submit.push_back(seconds_since(t0));
    const auto t1 = std::chrono::steady_clock::now();
    wire::JobResultMsg res;
    {
      Spans::Scope span(spans, "serve::wait_job");
      res = bonsai::serve::wait_job("127.0.0.1", server.port(), st.job_id);
    }
    wait.push_back(seconds_since(t1));
    bytes.push_back(static_cast<double>(wire::encode_job_result(res).size()));
    r.attempt(res.state == wire::JobState::kCompleted && res.parts.size() == spec.n,
              "serve probe job did not complete");
  }
  const auto m = bonsai::serve::fetch_metrics("127.0.0.1", server.port());
  r.set("serve.submit_rtt_s", median(submit), "s");
  r.set("serve.wait_s", median(wait), "s");
  r.set("serve.result_bytes", median(bytes), "B");
  r.set("serve.preemptions", scraped_counter(m, "server.jobs.preempted"), "count");
  r.set("serve.rejected", scraped_counter(m, "server.jobs.rejected"), "count");
  server.shutdown();
}

}  // namespace

void run_layer_probes(const ProbeInput& in, Results& r, Spans& spans,
                      const std::string& sim_binary, const std::string& spool_dir,
                      bool measure_spawn, bool measure_serve) {
  const domain::SimConfig& cfg = in.cfg;
  const int nranks = cfg.nranks;
  const bonsai::sfc::KeySpace space(in.state.bounds(), cfg.curve);

  // Key-ordered slices standing in for the ranks' domains.
  ParticleSet sorted = in.state;
  bonsai::sort_by_keys(sorted, space);
  std::vector<ParticleSet> slices(static_cast<std::size_t>(nranks));
  const std::size_t per = (sorted.size() + static_cast<std::size_t>(nranks) - 1) /
                          static_cast<std::size_t>(nranks);
  std::vector<std::uint8_t> in_slice0(in.state.size(), 0);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    slices[i / per].add(sorted.get(i));
    if (i < per) in_slice0.at(sorted.id[i]) = 1;  // ids are 0..n-1
  }
  const ParticleSet rank0_unsorted = subset(in.state, in_slice0);  // id order

  for (int i = 0; i < kReps; ++i) {
    ParticleSet p = rank0_unsorted;
    Spans::Scope span(spans, "sort_by_keys");
    bonsai::sort_by_keys(p, space);
  }
  r.set("sfc.sort.iso_s", spans.median_s("sort_by_keys"), "s");

  ParticleSet rank0 = rank0_unsorted;
  bonsai::sort_by_keys(rank0, space);
  bonsai::Octree tree;
  for (int i = 0; i < kReps; ++i) {
    Spans::Scope span(spans, "tree.build");
    {
      Spans::Scope child(spans, "Octree::build");
      tree.build(rank0, cfg.nleaf);
    }
    Spans::Scope child(spans, "Octree::compute_properties");
    tree.compute_properties(rank0, cfg.theta);
  }
  r.set("tree.build.iso_s", spans.median_s("tree.build"), "s");

  const auto groups = bonsai::make_groups(rank0, cfg.ncrit);
  bonsai::InteractionQueue queue;
  ParticleSet targets = rank0;
  r.set("tree.walk.iso_s", timed_reps(spans, "traverse_groups_batched", 3, [&] {
          targets.zero_forces();
          bonsai::traverse_groups_batched(tree.view(rank0), targets, groups,
                                          cfg.traversal(), true, queue);
        }), "s");

  const bonsai::AABB remote_box = slices[1 % slices.size()].bounds();
  domain::LetTree let;
  r.set("let.export.iso_s", timed_reps(spans, "build_let", kReps, [&] {
          let = domain::build_let(tree.view(rank0), remote_box);
        }), "s");

  std::vector<std::uint8_t> frame;
  const double enc_s = timed_reps(spans, "wire::encode_let", kReps,
                                  [&] { frame = wire::encode_let({0, let, 0.0, 0}); });
  std::size_t decoded_cells = 0;
  const double dec_s = timed_reps(spans, "wire::decode_let", kReps, [&] {
    decoded_cells = wire::decode_let(frame).let.num_cells();
  });
  r.attempt(decoded_cells == let.num_cells(), "decoded LET lost cells");
  r.set("wire.encode.iso_mb_s", static_cast<double>(frame.size()) / enc_s * 1e-6, "MB/s");
  r.set("wire.decode.iso_mb_s", static_cast<double>(frame.size()) / dec_s * 1e-6, "MB/s");

  transport_probes(r, spans,
                   in.let_frame_bytes > 0 ? static_cast<std::size_t>(in.let_frame_bytes)
                                          : frame.size());

  std::vector<const ParticleSet*> ptrs;
  for (const ParticleSet& s : slices) ptrs.push_back(&s);
  r.set("decomposition.update.iso_s", timed_reps(spans, "update_domain", kReps, [&] {
          domain::update_domain(ptrs, nranks, cfg.curve, cfg.samples_per_rank, cfg.snap_level,
                                {});
        }), "s");

  kernel_probes(r, spans, in.seed);
  if (measure_spawn) spawn_probe(r, spans, cfg, sim_binary);
  if (measure_serve) serve_probe(r, spans, in.seed, spool_dir);
}

}  // namespace perfbench
