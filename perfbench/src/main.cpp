// hembench: the hem-cpa benchmark program.
//
//   hembench --workload <wide_hier|daemon_edit|batch_fleet> --seed <n>
//            --seconds <s> --trace <0|1> --hemcpad <path> --workdir <dir>
//            [--corrupt-reference]
//
// Prints one JSON object as the last line of stdout: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones.  perfbench/run.py builds this binary
// and calls it.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <thread>

#include "workloads.hpp"

#ifndef HEMBENCH_BUILD_TYPE
#define HEMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using hembench::Options;
using hembench::RunResult;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
    {"throughput_per_s", "1/s"}, {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MiB"},
    {"success_rate", "fraction"}};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"model.parse_ms", "ms"},
    {"model.engine_ms", "ms"},
    {"model.overload_check_ms", "ms"},
    {"model.parallel_speedup", "x"},
    {"model.iterations", "count"},
    {"model.local_analyses_run", "count"},
    {"model.analysis_cache_hit_rate", "fraction"},
    {"model.node_reuse_rate", "fraction"},
    {"sched.local_ms.spp", "ms"},
    {"sched.local_ms.can", "ms"},
    {"sched.local_ms.tdma", "ms"},
    {"sched.local_ms.rr", "ms"},
    {"sched.q_max_p90", "count"},
    {"core.eta_plus_ns", "ns"},
    {"core.delta_min_ns", "ns"},
    {"hierarchical.frames", "count"},
    {"hierarchical.inner_streams", "count"},
    {"hierarchical.after_response_us", "us"},
    {"hierarchical.inner_eta_ns", "ns"},
    {"rtc.models_compiled", "count"},
    {"exec.worker_rtt_ms", "ms"},
    {"exec.slot_busy_frac", "fraction"},
    {"exec.journal_add_ms", "ms"},
    {"exec.journal_bytes", "bytes"},
    {"exec.retries", "count"},
    {"exec.crash_respawns", "count"},
    {"exec.watchdog_cancels", "count"},
    {"exec.degraded_jobs", "count"},
    {"daemon.ping_ms_p50", "ms"},
    {"daemon.submit_ms_p50", "ms"},
    {"daemon.wait_ms_p50", "ms"},
    {"daemon.fresh_ms_p50", "ms"},
    {"daemon.resubmit_ms_p50", "ms"},
    {"daemon.edit_ms_p50", "ms"},
    {"daemon.attempt_share", "fraction"},
    {"daemon.journal_hits", "count"},
    {"daemon.cache_exact_hits", "count"},
    {"daemon.cache_base_hits", "count"},
    {"daemon.warm_seeded_frac", "fraction"},
    {"daemon.rejected", "count"},
    {"daemon.queue_depth_max", "count"},
    {"bench.gen_lateness_ms_p90", "ms"},
    {"bench.span_coverage_min", "fraction"},
    {"bench.trace_delta_frac", "fraction"},
    {"obs.trace_overhead_frac", "fraction"}};

int usage(const std::string& why) {
  std::cerr << "hembench: " << why << "\n"
            << "usage: hembench --workload <wide_hier|daemon_edit|batch_fleet> --seed <n>\n"
               "                --seconds <s> --trace <0|1> --hemcpad <path> --workdir <dir>\n"
               "                [--corrupt-reference]\n";
  return 2;
}

std::string fs_type(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Length of a probe run (see probe_unexercised_layers).
constexpr double kProbeSeconds = 4.0;

RunResult run_workload(const Options& o) {
  if (o.workload == "wide_hier") return hembench::run_wide_hier(o);
  if (o.workload == "daemon_edit") return hembench::run_daemon_edit(o);
  return hembench::run_batch_fleet(o);
}

/// Declared per-layer metrics `r` holds no measurement of.
std::set<std::string> unmeasured(const RunResult& r) {
  std::set<std::string> missing;
  for (const auto& [name, unit] : kPerLayer) missing.insert(name);
  for (const auto& m : r.metrics)
    if (m.absent.empty()) missing.erase(m.name);
  return missing;
}

/// A traced run reports every per-layer metric as a measurement.  A layer
/// the workload does not exercise (the daemon on wide_hier and batch_fleet,
/// TDMA/round-robin analyses on wide_hier and daemon_edit, ...) is measured
/// by a short traced run of a workload that does, once this workload's own
/// run is over.  The probe's correctness gate counts for this run.
void probe_unexercised_layers(const Options& o, RunResult& r) {
  for (const char* w : {"batch_fleet", "daemon_edit", "wide_hier"}) {
    const std::set<std::string> missing = unmeasured(r);
    if (missing.empty()) return;
    if (o.workload == w) continue;
    Options p = o;
    p.workload = w;
    p.seconds = kProbeSeconds;
    p.setup_repeats = 1;
    p.corrupt_reference = false;
    p.workdir = o.workdir + "/probe-" + w;
    std::filesystem::create_directories(p.workdir);
    hembench::note("probe " + p.workload + ": " + std::to_string(missing.size()) +
                   " per-layer metric(s) not measured by " + o.workload);
    const RunResult probe = run_workload(p);
    if (!probe.correct || probe.failed != 0) r.fail("probe run of " + p.workload + " failed");
    for (const auto& m : probe.metrics) {
      if (!m.absent.empty() || missing.count(m.name) == 0) continue;
      std::erase_if(r.metrics, [&](const hembench::Metric& old) { return old.name == m.name; });
      r.metrics.push_back(m);
      hembench::note(m.name + ": measured by the " + p.workload + " probe");
    }
  }
}

/// Put every declared metric of the run's kind in declaration order; the
/// ones still unmeasured read 0 and are named on stderr with the reason.
void complete(RunResult& r, const std::vector<std::pair<std::string, std::string>>& declared,
              const std::string& workload) {
  std::map<std::string, hembench::Metric> got;
  for (auto& m : r.metrics) got[m.name] = m;
  std::vector<hembench::Metric> out;
  for (const auto& [name, unit] : declared) {
    const auto it = got.find(name);
    if (it == got.end()) {
      out.push_back({name, 0.0, unit, "layer not exercised by " + workload});
      hembench::note("absent: " + name + " (" + out.back().absent + "), reported as 0");
    } else {
      if (!it->second.absent.empty())
        hembench::note("absent: " + name + " (" + it->second.absent + "), reported as 0");
      if (it->second.unit != unit) r.fail("metric " + name + " reported in " + it->second.unit);
      out.push_back(it->second);
      got.erase(it);
    }
  }
  for (const auto& [name, m] : got) r.fail("undeclared metric " + name);
  r.metrics = std::move(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
      } else if (a == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--hemcpad") {
        o.hemcpad = next();
      } else if (a == "--workdir") {
        o.workdir = next();
      } else if (a == "--corrupt-reference") {
        o.corrupt_reference = true;
      } else {
        return usage("unknown argument '" + a + "'");
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (o.workload.empty() || o.workdir.empty() || !have_trace || o.seconds <= 0)
    return usage("--workload, --seconds, --trace and --workdir are required");

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  o.width = static_cast<int>(std::min(4u, hw));
  std::filesystem::create_directories(o.workdir);
  hembench::note(std::string("environment: {\"nproc\": ") + std::to_string(hw) +
                 ", \"width\": " + std::to_string(o.width) + ", \"compiler\": \"" + __VERSION__ +
                 "\", \"build_type\": \"" + HEMBENCH_BUILD_TYPE +
                 "\", \"HEM_OBS\": \"ON\", \"HEM_VERIFY\": \"OFF\", \"journal_fs\": \"" +
                 fs_type(o.workdir) + "\"}");

  if (o.workload != "wide_hier" && o.workload != "daemon_edit" && o.workload != "batch_fleet")
    return usage("unknown workload '" + o.workload + "'");
  // Traced runs may probe the daemon layer (probe_unexercised_layers).
  if ((o.workload == "daemon_edit" || o.trace) &&
      (o.hemcpad.empty() || access(o.hemcpad.c_str(), X_OK) != 0))
    return usage("daemon_edit and traced runs need --hemcpad <executable>");

  RunResult r;
  try {
    r = run_workload(o);
    if (o.trace) probe_unexercised_layers(o, r);
  } catch (const std::exception& e) {
    std::cerr << "hembench: " << o.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  if (r.attempted < 1) {
    std::cerr << "hembench: no operation completed\n";
    return 1;
  }
  complete(r, o.trace ? kPerLayer : kEndToEnd, o.workload);
  std::cout << r.json() << std::endl;
  return 0;
}
