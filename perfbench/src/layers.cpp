// Traced per-layer replays shared by the workloads.  Each replay drives one
// layer's public entry points from outside, on the workload's own inputs and
// on the models its analyses converged to.

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "core/errors.hpp"
#include "exec/journal.hpp"
#include "exec/worker_process.hpp"
#include "hierarchical/hierarchical_event_model.hpp"
#include "hierarchical/pack_constructor.hpp"
#include "model/analysis_report.hpp"
#include "obs/obs.hpp"
#include "sched/can_bus.hpp"
#include "sched/round_robin.hpp"
#include "sched/spp.hpp"
#include "sched/tdma.hpp"
#include "workloads.hpp"

namespace hembench {

namespace cpa = hem::cpa;

cpa::EngineOptions engine_options(const cpa::ParsedSystem& parsed, int jobs) {
  cpa::EngineOptions o;
  o.jobs = jobs;
  HB_COPY(o, check_overload, parsed, check_overload);
  return o;
}

namespace {

double elapsed_ms(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

/// Time one engine run; returns ms and leaves the report in `out`.
double timed_run(const cpa::ParsedSystem& parsed, const cpa::EngineOptions& eo,
                 cpa::AnalysisReport& out) {
  const auto t0 = Clock::now();
  cpa::CpaEngine engine(parsed.system, eo);
  out = engine.run();
  return elapsed_ms(t0);
}

struct SchedTotals {
  double ms = 0.0;
  long systems = 0;
};

/// Replay every resource's local analysis through the public sched classes
/// on the converged activation models of `report`.
void replay_sched(const cpa::System& sys, const cpa::AnalysisReport& report,
                  std::map<cpa::Policy, SchedTotals>& totals, std::vector<double>& q_max,
                  long& errors) {
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < report.tasks.size(); ++i) by_name[report.tasks[i].name] = i;
  std::map<cpa::Policy, double> per_policy;
  for (std::size_t r = 0; r < sys.resources().size(); ++r) {
    const cpa::ResourceSpec& res = sys.resources()[r];
    std::vector<hem::sched::TaskParams> params;
    std::vector<hem::Time> slots;
    for (const cpa::TaskSpec& t : sys.tasks()) {
      if (t.resource != r) continue;
      const auto it = by_name.find(t.name);
      if (it == by_name.end() || report.tasks[it->second].activation == nullptr) continue;
      params.push_back({t.name, t.priority, t.cet, report.tasks[it->second].activation});
      slots.push_back(t.slot);
    }
    if (params.empty()) continue;
    std::vector<hem::sched::ResponseResult> results;
    const auto t0 = Clock::now();
    const auto each = [&](const auto& analysis) {
      for (std::size_t i = 0; i < params.size(); ++i) {
        try {
          results.push_back(analysis.analyze(i));
        } catch (const hem::AnalysisError&) {
          ++errors;  // overloaded resource: the engine degrades these tasks too
        }
      }
    };
    switch (res.policy) {
      case cpa::Policy::kSppPreemptive:
        each(hem::sched::SppAnalysis(params));
        break;
      case cpa::Policy::kSpnpCan:
        each(hem::sched::CanBusAnalysis(params));
        break;
      case cpa::Policy::kTdma: {
        std::vector<hem::sched::TdmaTask> tasks;
        for (std::size_t i = 0; i < params.size(); ++i) tasks.push_back({params[i], slots[i]});
        each(hem::sched::TdmaAnalysis(tasks, res.tdma_cycle));
        break;
      }
      case cpa::Policy::kRoundRobin: {
        std::vector<hem::sched::RoundRobinTask> tasks;
        for (std::size_t i = 0; i < params.size(); ++i) tasks.push_back({params[i], slots[i]});
        each(hem::sched::RoundRobinAnalysis(tasks));
        break;
      }
      default:
        continue;  // no workload generates FlexRay or EDF resources
    }
    per_policy[res.policy] += elapsed_ms(t0);
    for (const auto& rr : results)
      if (!hem::is_infinite_count(rr.activations)) q_max.push_back(static_cast<double>(rr.activations));
  }
  for (const auto& [policy, ms] : per_policy) {
    totals[policy].ms += ms;
    ++totals[policy].systems;
  }
}

struct QueryTotals {
  double eta_ns = 0.0;
  long eta_queries = 0;
  double delta_ns = 0.0;
  long delta_queries = 0;
};

hem::Time probe_window(const cpa::TaskResult& t) {
  return (t.busy_period > 0 && !hem::is_infinite(t.busy_period)) ? t.busy_period : 1000;
}

/// Per-query cost of eta+ and delta- on the converged activation models.
void replay_core(const cpa::AnalysisReport& report, QueryTotals& q, std::uint64_t& sink) {
  auto t0 = Clock::now();
  long n = 0;
  for (const auto& t : report.tasks) {
    if (t.activation == nullptr) continue;
    const hem::Time bp = probe_window(t);
    for (const hem::Time dt : {hem::Time{1}, bp / 4 + 1, bp / 2 + 1, bp, 2 * bp}) {
      sink += static_cast<std::uint64_t>(t.activation->eta_plus(dt));
      ++n;
    }
  }
  q.eta_ns += elapsed_ms(t0) * 1e6;
  q.eta_queries += n;
  t0 = Clock::now();
  n = 0;
  for (const auto& t : report.tasks) {
    if (t.activation == nullptr) continue;
    for (hem::Count k = 2; k <= 9; ++k) {
      sink += static_cast<std::uint64_t>(t.activation->delta_min(k));
      ++n;
    }
  }
  q.delta_ns += elapsed_ms(t0) * 1e6;
  q.delta_queries += n;
}

struct HierTotals {
  long frames = 0;
  long inner_streams = 0;
  double after_us = 0.0;
  long after_calls = 0;
  double inner_eta_ns = 0.0;
  long inner_eta_queries = 0;
};

/// Rebuild each frame's hierarchical activation with Omega_pa from the
/// converged producer streams, apply the inner update B for the frame's
/// response interval, and query the inner streams Psi_pa unpacks.
void replay_hierarchical(const cpa::System& sys, const cpa::AnalysisReport& report,
                         HierTotals& h, std::uint64_t& sink) {
  for (std::size_t t = 0; t < sys.tasks().size() && t < report.tasks.size(); ++t) {
    const auto* packed = std::get_if<cpa::PackedActivation>(&sys.activation(t));
    const cpa::TaskResult& frame = report.tasks[t];
    if (packed == nullptr || hem::is_infinite(frame.wcrt)) continue;
    std::vector<hem::PackInput> inputs;
    bool complete = true;
    for (const auto& in : packed->inputs) {
      hem::ModelPtr m;
      if (const auto* id = std::get_if<cpa::TaskId>(&in.source)) {
        m = *id < report.tasks.size() ? report.tasks[*id].output : nullptr;
      } else {
        m = std::get<hem::ModelPtr>(in.source);
      }
      if (m == nullptr) complete = false;
      inputs.push_back({m, in.coupling});
    }
    if (!complete) continue;
    hem::HemPtr activation;
    try {
      activation = hem::pack(inputs, packed->timer);
    } catch (const std::exception&) {
      continue;
    }
    ++h.frames;
    h.inner_streams += static_cast<long>(activation->inner_count());
    constexpr int kCalls = 5;
    hem::HemPtr updated;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) updated = activation->after_response(frame.bcrt, frame.wcrt);
    h.after_us += elapsed_ms(t0) * 1e3;
    h.after_calls += kCalls;
    const hem::Time bp = probe_window(frame);
    const auto t1 = Clock::now();
    long n = 0;
    for (const hem::ModelPtr& inner : updated->unpack()) {
      for (const hem::Time dt : {bp, 4 * bp, 16 * bp}) {
        sink += static_cast<std::uint64_t>(inner->eta_plus(dt));
        ++n;
      }
    }
    h.inner_eta_ns += elapsed_ms(t1) * 1e6;
    h.inner_eta_queries += n;
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void replay_model_layers(const std::vector<std::string>& configs, int jobs, int reps,
                         RunResult& r) {
  std::vector<double> parse_ms;
  double engine_ms = 0.0, engine1_ms = 0.0, off_ms = 0.0, traced_ms = 0.0;
  bool off_supported = true;
  std::vector<std::optional<double>> iterations, runs, hit_rate, reuse_rate, compiled;
  std::map<cpa::Policy, SchedTotals> sched;
  std::vector<double> q_max;
  long sched_errors = 0;
  QueryTotals queries;
  HierTotals hier;
  std::uint64_t sink = 0;
  const auto median_of = [reps](auto&& once) {
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) v.push_back(once());
    return median(v);
  };

  for (const std::string& text : configs) {
    std::vector<double> p;
    cpa::ParsedSystem parsed;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      parsed = parse_text(text);
      p.push_back(elapsed_ms(t0));
    }
    parse_ms.push_back(median(p));

    cpa::AnalysisReport report;
    engine_ms += median_of([&] { return timed_run(parsed, engine_options(parsed, jobs), report); });
    {
      cpa::AnalysisReport scratch;
      engine1_ms += median_of([&] { return timed_run(parsed, engine_options(parsed, 1), scratch); });
      const cpa::ParsedSystem off = parse_text(text + "option overload_check=off\n");
      cpa::EngineOptions eo = engine_options(off, jobs);
      off_supported = off_supported && HB_COPY(eo, check_overload, off, check_overload);
      off_ms += median_of([&] { return timed_run(off, eo, scratch); });
      hem::obs::Tracer tracer;
      hem::obs::set_tracer(&tracer);
      traced_ms += median_of([&] { return timed_run(parsed, engine_options(parsed, jobs), scratch); });
      hem::obs::set_tracer(nullptr);
      hem::obs::set_counting(false);
    }

    iterations.push_back(HB_FIELD(report, iterations));
    runs.push_back(HB_FIELD(report, stats.local_analyses_run));
    hit_rate.push_back(HB_FIELD(report, stats.analysis_cache_hit_rate()));
    reuse_rate.push_back(HB_FIELD(report, stats.node_reuse_rate()));
    compiled.push_back(HB_FIELD(report, stats.models_compiled));

    replay_sched(parsed.system, report, sched, q_max, sched_errors);
    replay_core(report, queries, sink);
    replay_hierarchical(parsed.system, report, hier, sink);
  }

  const double n = static_cast<double>(configs.size());
  const auto mean_of = [](const std::vector<std::optional<double>>& v) -> std::optional<double> {
    double s = 0.0;
    for (const auto& x : v) {
      if (!x) return std::nullopt;
      s += *x;
    }
    return v.empty() ? std::nullopt : std::optional<double>(s / static_cast<double>(v.size()));
  };
  const std::string gone = "field no longer exposed by AnalysisReport/EngineStats";

  double parse_total = 0.0;
  for (const double x : parse_ms) parse_total += x;
  r.set("model.parse_ms", parse_total / n, "ms");
  r.set("model.engine_ms", engine_ms / n, "ms");
  if (off_supported) {
    r.set("model.overload_check_ms", (engine_ms - off_ms) / n, "ms");
  } else {
    r.absent("model.overload_check_ms", "ms", "engine has no overload-check option any more");
  }
  r.set("model.parallel_speedup", ratio(engine1_ms, engine_ms), "x");
  r.set_or_absent("model.iterations", mean_of(iterations), "count", gone);
  r.set_or_absent("model.local_analyses_run", mean_of(runs), "count", gone);
  r.set_or_absent("model.analysis_cache_hit_rate", mean_of(hit_rate), "fraction", gone);
  r.set_or_absent("model.node_reuse_rate", mean_of(reuse_rate), "fraction", gone);
  r.set_or_absent("rtc.models_compiled", mean_of(compiled), "count", gone);
  r.set("obs.trace_overhead_frac", ratio(traced_ms, engine_ms) - 1.0, "fraction");

  const std::pair<const char*, cpa::Policy> kinds[] = {
      {"sched.local_ms.spp", cpa::Policy::kSppPreemptive},
      {"sched.local_ms.can", cpa::Policy::kSpnpCan},
      {"sched.local_ms.tdma", cpa::Policy::kTdma},
      {"sched.local_ms.rr", cpa::Policy::kRoundRobin}};
  for (const auto& [name, policy] : kinds) {
    const auto it = sched.find(policy);
    if (it == sched.end()) {
      r.absent(name, "ms", "workload has no resource of this kind");
    } else {
      r.set(name, it->second.ms / static_cast<double>(it->second.systems), "ms");
    }
  }
  r.set("sched.q_max_p90", quantile(q_max, 0.9), "count");
  r.set("core.eta_plus_ns", ratio(queries.eta_ns, static_cast<double>(queries.eta_queries)), "ns");
  r.set("core.delta_min_ns", ratio(queries.delta_ns, static_cast<double>(queries.delta_queries)), "ns");
  r.set("hierarchical.frames", static_cast<double>(hier.frames) / n, "count");
  r.set("hierarchical.inner_streams", static_cast<double>(hier.inner_streams) / n, "count");
  if (hier.frames == 0) {
    r.absent("hierarchical.after_response_us", "us", "workload has no packed frames");
    r.absent("hierarchical.inner_eta_ns", "ns", "workload has no packed frames");
  } else {
    r.set("hierarchical.after_response_us", ratio(hier.after_us, static_cast<double>(hier.after_calls)), "us");
    r.set("hierarchical.inner_eta_ns",
          ratio(hier.inner_eta_ns, static_cast<double>(hier.inner_eta_queries)), "ns");
  }
  note("layer replay: " + std::to_string(configs.size()) + " config(s), " +
       std::to_string(sched_errors) + " overloaded local analyses, checksum " +
       std::to_string(sink % 1000));
}

void probe_worker_rtt(RunResult& r) {
  if (!hem::exec::WorkerProcess::supported()) {
    r.absent("exec.worker_rtt_ms", "ms", "no process isolation on this platform");
    return;
  }
  std::vector<double> rtt;
  for (int i = 0; i < 15; ++i) {
    hem::exec::WorkerProcess worker;
    const auto t0 = Clock::now();
    const hem::exec::WorkerReport rep = worker.run(
        [] {
          hem::exec::AttemptOutcome out;
          out.ok = true;
          out.converged = true;
          return out;
        },
        hem::exec::WorkerLimits{}, nullptr);
    rtt.push_back(ms_between(t0, Clock::now()));
    if (rep.kind != hem::exec::WorkerExit::kResult) {
      r.fail("no-op worker attempt did not return a result: " + rep.detail);
      break;
    }
  }
  r.set("exec.worker_rtt_ms", median(rtt), "ms");
}

void probe_journal(const std::string& journal_path, const std::string& scratch_copy,
                   RunResult& r) {
  std::ifstream in(journal_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.empty()) {
    r.absent("exec.journal_add_ms", "ms", "no journal written");
    r.absent("exec.journal_bytes", "bytes", "no journal written");
    return;
  }
  std::ofstream(scratch_copy, std::ios::binary) << bytes;
  hem::exec::Journal journal(scratch_copy);
  journal.load();
  if (journal.entries().empty()) {
    r.absent("exec.journal_add_ms", "ms", "journal has no entries");
  } else {
    std::vector<double> add_ms;
    for (int i = 0; i < 5; ++i) {
      hem::exec::JournalEntry e = journal.entries().back();
      e.config_path += "#probe" + std::to_string(i);
      const auto t0 = Clock::now();
      journal.add(std::move(e));
      add_ms.push_back(ms_between(t0, Clock::now()));
    }
    r.set("exec.journal_add_ms", median(add_ms), "ms");
  }
  r.set("exec.journal_bytes", static_cast<double>(bytes.size()), "bytes");
  std::remove(scratch_copy.c_str());
}

void finish_spans(const Spans& spans, const char* op, const std::string& trace_path,
                  RunResult& r) {
  const std::vector<double> cov = spans.child_coverage(op);
  if (cov.empty()) {
    r.absent("bench.span_coverage_min", "fraction", "no operation spans recorded");
  } else {
    double lo = 1.0;
    for (const double c : cov) lo = std::min(lo, c);
    r.set("bench.span_coverage_min", lo, "fraction");
  }
  for (const auto& [name, ms] : spans.self_ms_by_name()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "self time %-28s %10.2f ms", name.c_str(), ms);
    note(buf);
  }
  spans.write(trace_path);
  note("spans written to " + trace_path);
}

}  // namespace hembench
