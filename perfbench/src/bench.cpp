#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "daemon/protocol.hpp"
#include "exec/analysis_attempt.hpp"
#include "io/csv.hpp"
#include "model/analysis_report.hpp"
#include "model/cpa_engine.hpp"
#include "sim/system_simulator.hpp"

namespace hembench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double binned_quantile(std::vector<long> whole_ms, double q) {
  if (whole_ms.empty()) return 0.0;
  std::sort(whole_ms.begin(), whole_ms.end());
  const double target = q * static_cast<double>(whole_ms.size());
  for (auto lo = whole_ms.begin(); lo != whole_ms.end();) {
    const auto hi = std::upper_bound(lo, whole_ms.end(), *lo);
    const auto below = static_cast<double>(lo - whole_ms.begin());
    const auto in_bin = static_cast<double>(hi - lo);
    if (target < below + in_bin || hi == whole_ms.end())
      return static_cast<double>(*lo) + std::min(1.0, (target - below) / in_bin);
    lo = hi;
  }
  return static_cast<double>(whole_ms.back());
}

void note(const std::string& line) { std::cerr << "[hembench] " << line << "\n"; }

// ---------------------------------------------------------------------------
// RunResult
// ---------------------------------------------------------------------------

void RunResult::set(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, value, unit, ""});
}

void RunResult::absent(const std::string& name, const std::string& unit, const std::string& why) {
  metrics.push_back({name, 0.0, unit, why.empty() ? "not measured" : why});
}

void RunResult::set_or_absent(const std::string& name, const std::optional<double>& v,
                              const std::string& unit, const std::string& why) {
  if (v) {
    set(name, *v, unit);
  } else {
    absent(name, unit, why);
  }
}

void RunResult::fail(const std::string& why) {
  correct = false;
  note("CORRECTNESS: " + why);
}

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string RunResult::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) os << ", ";
    os << "\"" << hem::daemon::json_escape(m.name) << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << hem::daemon::json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

std::optional<double> stats_key(const std::string& stats_json, const std::string& key) {
  const std::string v = hem::daemon::json_find(stats_json, key);
  if (v.empty()) return std::nullopt;
  if (v == "true") return 1.0;
  if (v == "false") return 0.0;
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::uint64_t Spans::ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

std::int64_t Spans::add(const char* name, Clock::time_point start, Clock::time_point end,
                        std::int64_t parent, std::uint64_t req) {
  if (!enabled_) return kNoParent;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, ns(start), ns(end), parent, req});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t Spans::begin(const char* name, std::int64_t parent, std::uint64_t req) {
  if (!enabled_) return kNoParent;
  const auto now = Clock::now();
  return add(name, now, now, parent, req);
}

void Spans::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::uint64_t t = ns(Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<std::vector<std::size_t>> Spans::children() const {
  std::vector<std::vector<std::size_t>> kids(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) kids[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  return kids;
}

namespace {
/// Length of the union of child intervals clipped to [lo, hi].
template <class SpanT>
std::uint64_t covered_ns(const std::vector<SpanT>& spans, const std::vector<std::size_t>& kids,
                         std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const std::size_t k : kids) {
    const std::uint64_t a = std::max(lo, spans[k].start_ns);
    const std::uint64_t b = std::min(hi, spans[k].end_ns);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_a = 0;
  std::uint64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}
}  // namespace

std::vector<std::pair<std::string, double>> Spans::self_ms_by_name() const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto kids = children();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t cov = covered_ns(spans_, kids[i], s.start_ns, s.end_ns);
    self[s.name] += static_cast<double>(dur - std::min(dur, cov)) / 1e6;
  }
  return {self.begin(), self.end()};
}

std::vector<double> Spans::child_coverage(const char* op) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto kids = children();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::string_view(s.name) != op || s.end_ns <= s.start_ns) continue;
    const std::uint64_t cov = covered_ns(spans_, kids[i], s.start_ns, s.end_ns);
    out.push_back(static_cast<double>(cov) / static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

void Spans::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.start_ns) / 1e3);
    std::string ts = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << s.req << ", \"ts\": " << ts << ", \"dur\": " << buf
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << ", \"req\": " << s.req
       << "}}";
  }
  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

namespace {
double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
}

long status_kb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::atol(line.c_str() + key.size());
  }
  return 0;
}
}  // namespace

double self_and_children_cpu_ms() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  return tv_ms(self.ru_utime) + tv_ms(self.ru_stime) + tv_ms(kids.ru_utime) +
         tv_ms(kids.ru_stime);
}

double proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, so
  // utime/stime/cutime/cstime (14-17) are tokens 11-14 after ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 1));
  std::string tok;
  double ticks = 0.0;
  for (int i = 0; i < 15 && rest >> tok; ++i)
    if (i >= 11) ticks += std::atof(tok.c_str());
  return ticks * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool reset_peak_rss() {
  malloc_trim(0);  // hand set-up's freed heap back, so the peak is the measured phase's
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double self_peak_rss_mb() { return static_cast<double>(status_kb("/proc/self/status", "VmHWM:")) / 1024.0; }

double children_peak_rss_mb() {
  rusage kids{};
  getrusage(RUSAGE_CHILDREN, &kids);
  return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Inputs and gate
// ---------------------------------------------------------------------------

hem::cpa::ParsedSystem parse_text(const std::string& text) {
  std::istringstream in(text);
  return hem::cpa::parse_system_config(in);
}

std::vector<std::string> report_rows(const std::string& label,
                                     const hem::cpa::AnalysisReport& report) {
  std::ostringstream ss;
  hem::io::write_report_csv(ss, report);
  std::istringstream in(ss.str());
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::string> rows;
  const std::string prefix = hem::io::csv_field(label) + ",";
  while (std::getline(in, line)) rows.push_back(prefix + line);
  return rows;
}

Reference reference_for(const std::string& config_text, const std::string& label) {
  const hem::cpa::ParsedSystem parsed = parse_text(config_text);
  hem::exec::AttemptOptions opts;
  opts.engine_jobs = 1;
  const hem::exec::AttemptOutcome out = hem::exec::run_analysis_attempt(parsed, label, opts, nullptr);
  if (!out.ok) throw std::runtime_error("reference analysis failed: " + out.message);
  return {out.rows, out.degraded};
}

const std::string& paper_system_text() {
  static const std::string text =
      "source s1 periodic period=250\n"
      "source s2 periodic period=450\n"
      "source s3 periodic period=1000\n"
      "source s4 periodic period=400\n"
      "resource CAN  can\n"
      "resource CPU1 spp\n"
      "resource CPU2 spp\n"
      "task F1 resource=CAN priority=1 cet=4\n"
      "task F2 resource=CAN priority=2 cet=2\n"
      "task T1 resource=CPU1 priority=1 cet=24\n"
      "task T2 resource=CPU1 priority=2 cet=32\n"
      "task T3 resource=CPU1 priority=3 cet=40\n"
      "task T4 resource=CPU2 priority=1 cet=10\n"
      "packed F1 inputs=s1:trig,s2:trig,s3:pend\n"
      "packed F2 inputs=s4:trig\n"
      "unpack T1 frame=F1 index=0\n"
      "unpack T2 frame=F1 index=1\n"
      "unpack T3 frame=F1 index=2\n"
      "unpack T4 frame=F2 index=0\n"
      "deadline T1 250\n"
      "deadline T2 450\n"
      "deadline T3 1000\n";
  return text;
}

namespace {
std::vector<std::string> split_csv_simple(const std::string& row) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : row) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}
}  // namespace

std::string check_table3(const std::vector<std::string>& rows) {
  // Expected [bcrt, wcrt] per task; -1 = only the upper bound is tabulated.
  const std::map<std::string, std::pair<long, long>> want = {
      {"T1", {-1, 24}}, {"T2", {-1, 56}}, {"T3", {-1, 96}}, {"F1", {4, 10}}, {"F2", {2, 10}}};
  std::size_t seen = 0;
  for (const std::string& row : rows) {
    const auto f = split_csv_simple(row);  // config,task,resource,bcrt,wcrt,...
    if (f.size() < 5) return "malformed row: " + row;
    const auto it = want.find(f[1]);
    if (it == want.end()) continue;
    ++seen;
    const long bcrt = std::atol(f[3].c_str());
    const long wcrt = std::atol(f[4].c_str());
    if (wcrt != it->second.second || (it->second.first >= 0 && bcrt != it->second.first))
      return "Table 3 mismatch for " + f[1] + ": got [" + f[3] + ":" + f[4] + "]";
  }
  if (seen != want.size()) return "Table 3 rows missing (" + std::to_string(seen) + " of 5)";
  return "";
}

void check_dominance(const std::string& config_text, Dominance& acc) {
  const hem::cpa::ParsedSystem parsed = parse_text(config_text);
  for (const auto& r : parsed.system.resources()) {
    if (r.policy != hem::cpa::Policy::kSppPreemptive && r.policy != hem::cpa::Policy::kSpnpCan) {
      ++acc.systems_skipped;
      return;
    }
  }
  hem::cpa::EngineOptions eo;
  eo.jobs = 1;
  hem::cpa::CpaEngine engine(parsed.system, eo);
  const hem::cpa::AnalysisReport report = engine.run();
  hem::sim::SystemSimulator::Options so;
  so.horizon = 200'000;
  so.seed = 1;
  hem::sim::SystemSimulator sim(parsed.system, so);
  const hem::sim::SystemSimResult observed = sim.run();
  ++acc.systems_checked;
  for (const auto& t : report.tasks) {
    const auto it = observed.tasks.find(t.name);
    if (it == observed.tasks.end()) continue;
    ++acc.tasks_checked;
    if (it->second.wcrt > t.wcrt) {
      if (acc.violations++ == 0)
        acc.first_violation = t.name + ": observed " + std::to_string(it->second.wcrt) +
                              " > bound " + std::to_string(t.wcrt);
    }
  }
}

std::vector<std::string> corrupted(std::vector<std::string> rows) {
  if (rows.empty()) return rows;
  std::string& row = rows.front();
  const auto digit = row.find_first_of("0123456789", row.find(','));
  if (digit != std::string::npos) row[digit] = row[digit] == '9' ? '0' : static_cast<char>(row[digit] + 1);
  return rows;
}

std::string shuffle_statements(const std::string& text, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::istringstream in(text);
  std::string out;
  std::vector<std::string> group;
  std::string kind;
  const auto flush = [&] {
    for (std::size_t i = group.size(); i > 1; --i) std::swap(group[i - 1], group[rng() % i]);
    for (const std::string& l : group) out += l + "\n";
    group.clear();
  };
  for (std::string line; std::getline(in, line);) {
    const std::string k = line.substr(0, line.find(' '));
    if (k != kind) flush();
    kind = k;
    group.push_back(line);
  }
  flush();
  return out;
}

std::string edit_one_parameter(const std::string& text, std::mt19937_64& rng) {
  std::vector<std::size_t> sites;
  for (std::size_t p = text.find(" cet="); p != std::string::npos; p = text.find(" cet=", p + 1))
    sites.push_back(p + 5);
  if (sites.empty()) return text;
  const std::size_t start = rng() % sites.size();
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const std::size_t at = sites[(start + k) % sites.size()];
    const std::size_t end = text.find_first_of(" \n", at);
    const std::string val = text.substr(at, end - at);
    const auto colon = val.find(':');
    const long best = std::atol(val.c_str());
    const long worst = colon == std::string::npos ? best : std::atol(val.c_str() + colon + 1);
    if (worst < 2) continue;
    const long w = worst - 1;
    return text.substr(0, at) + std::to_string(std::min(best, w)) + ":" + std::to_string(w) +
           text.substr(end);
  }
  return text;
}

}  // namespace hembench
