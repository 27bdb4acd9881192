// bonsai_perfbench: runs one benchmark workload and prints its metrics.
//
//   bonsai_perfbench --workload inproc-64k --seed 1 --seconds 20 --trace 0
//       --sim-binary .bench_build/repo/bonsai_sim --scratch-dir .bench_build/scratch
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
// pass that reports the per-layer metrics. Every metric line reads
// "metric <name> <value> <unit>"; the last line is one JSON record with the
// metrics, the correctness verdict and the build fingerprint. The exit code
// is 0 only when every operation and every correctness check passed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.hpp"
#include "util/cli.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string detected_isa() {
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "baseline";
}

void write_spans(const std::string& path, const perfbench::Spans& spans) {
  std::ofstream out(path);
  out << "[";
  bool first = true;
  for (const auto& s : spans.all()) {
    out << (first ? "" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"begin_ns\":" << s.begin_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
    first = false;
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Two malloc arenas, here and in every worker process spawned from here.
  // With glibc's default (eight per core) the resident set of the threaded
  // job server swings by a quarter between identical runs, depending only on
  // which arenas its threads happened to draw.
  mallopt(M_ARENA_MAX, 2);
  setenv("MALLOC_ARENA_MAX", "2", 1);

  bonsai::CommandLine cli;
  cli.add_option("workload", "NAME", "inproc-64k | mesh-256k-drift | serve-jobs");
  cli.add_option("seed", "S", "workload seed (default 1)");
  cli.add_option("seconds", "T", "timed duration (default 10)");
  cli.add_option("trace", "0|1", "1: traced per-layer pass (default 0)");
  cli.add_option("sim-binary", "PATH", "bonsai_sim executable for cluster workers");
  cli.add_option("scratch-dir", "DIR", "directory for job-server spool files");
  cli.add_option("spans", "FILE", "write the recorded spans as JSON to FILE");

  perfbench::RunOptions opt;
  try {
    cli.parse(argc, argv);
    opt.workload = cli.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.sim_binary = cli.get("sim-binary", "");
    opt.scratch_dir = cli.get("scratch-dir", ".");
  } catch (const bonsai::CliError& e) {
    std::cerr << "bonsai_perfbench: " << e.what() << "\n";
    return 2;
  }
  if (opt.workload != "inproc-64k" && opt.workload != "mesh-256k-drift" &&
      opt.workload != "serve-jobs") {
    std::cerr << "bonsai_perfbench: unknown --workload '" << opt.workload << "'\n";
    return 2;
  }

  perfbench::Results r;
  perfbench::Spans spans;
  try {
    if (opt.workload == "serve-jobs")
      perfbench::run_serve_workload(opt, r, spans);
    else
      perfbench::run_sim_workload(opt, r, spans);
  } catch (const std::exception& e) {
    r.attempt(false, std::string("exception: ") + e.what());
  }
  for (const auto& [name, m] : r.metrics)
    if (!std::isfinite(m.value)) r.attempt(false, name + " is not finite");
  if (cli.has("spans")) write_spans(cli.get("spans", ""), spans);

  for (const auto& [name, m] : r.metrics) {
    std::cout << "metric " << name << " " << json_number(m.value) << " " << m.unit;
    if (const auto it = r.notes.find(name); it != r.notes.end())
      std::cout << " (" << it->second << ")";
    std::cout << "\n";
  }
  for (const std::string& f : r.failures) std::cout << "FAILED: " << f << "\n";

  std::ostringstream rec;
  rec << "{\"workload\":" << json_string(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"correct\":" << (r.failures.empty() ? "true" : "false")
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failures.size()
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    rec << (first ? "" : ",") << json_string(name) << ":{\"value\":" << json_number(m.value)
        << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  rec << "},\"notes\":{";
  first = true;
  for (const auto& [name, note] : r.notes) {
    rec << (first ? "" : ",") << json_string(name) << ":" << json_string(note);
    first = false;
  }
  rec << "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : r.counts) {
    rec << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  rec << "},\"failures\":[";
  first = true;
  for (const std::string& f : r.failures) {
    rec << (first ? "" : ",") << json_string(f);
    first = false;
  }
  rec << "],\"fingerprint\":{\"compiler\":" << json_string(PERFBENCH_COMPILER)
      << ",\"flags\":" << json_string(PERFBENCH_FLAGS)
      << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
      << ",\"isa\":" << json_string(detected_isa())
      << ",\"nproc\":" << std::thread::hardware_concurrency() << "}}";
  std::cout << rec.str() << std::endl;
  return r.failures.empty() ? 0 : 1;
}
