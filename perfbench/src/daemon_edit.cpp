// daemon_edit: the real `hemcpad serve` with its defaults (worker isolation
// on, default pool width) and a journal in the run's directory, driven over
// its AF_UNIX socket through daemon::Client by a seeded editing session: the
// paper system and layered chains of 8-16 resources.  About half the
// requests are fresh configs, a quarter exact resubmissions (served from the
// journal) and a quarter one-parameter edits of an earlier submission (the
// warm-cache path).  Two phases: an open loop at a fixed rate (requests timed
// from their due time), then a closed loop with 4 connections to saturation.
// Analyses cost well under 10 ms, so the request path dominates.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "daemon/client.hpp"
#include "scenarios/synth.hpp"
#include "workloads.hpp"

namespace hembench {

namespace {

/// Open-loop arrival rate: about half the saturation throughput measured at
/// the commit that introduced the benchmark (see perfbench/NOTES.md).
constexpr double kOpenLoopRate = 40.0;
/// Share of --seconds spent in the open-loop phase; the rest saturates.
constexpr double kOpenShare = 0.7;
/// Requests prepared at set-up, with references and dominance checks; later
/// ones are generated on demand and checked against references computed
/// after the run.
constexpr std::size_t kPrepared = 256;
/// A resubmission or edit targets a config first sent at least this many
/// requests earlier, so its first run has finished and been journaled.
constexpr std::size_t kMinAge = 8;
constexpr int kWaiters = 3;  // + 1 generator connection = 4

enum Class { kFresh = 0, kResubmit = 1, kEdit = 2 };
const char* const kClassName[] = {"fresh", "resubmit", "edit"};

struct Config {
  std::string text;
  std::string label;
  std::vector<std::string> ref;
  bool has_ref = false;
};

struct Request {
  Class cls = kFresh;
  std::size_t cfg = 0;
};

/// Generator seed of the session's synth systems.  The n-th fresh config is
/// the same system in every run; the workload seed shuffles its statements
/// and draws everything else (classes, targets, edits, arrivals).  Systems
/// drawn afresh from each seed put the largest worker's memory at the
/// heaviest system a seed happens to draw: peak_rss_mb read 14.9-25.1 MiB
/// over seeds 101-110, a spread of 0.28.
constexpr std::uint64_t kSystemsSeed = 1;

/// The seeded editing session.  Request i depends only on the seed and the
/// requests before it.
class Session {
 public:
  explicit Session(std::uint64_t seed) : rng_(seed), systems_(kSystemsSeed) {}

  /// Request i, generating the session up to it.  Thread-safe.
  Request at(std::size_t i) {
    std::lock_guard<std::mutex> lk(mu_);
    while (reqs_.size() <= i) generate();
    return reqs_[i];
  }

  /// Compute the reference of every config that has none yet.  Thread-safe
  /// against at().
  void reference() {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::size_t c = 0; c < configs_.size(); ++c) {
      if (configs_[c].has_ref) continue;
      const std::string text = configs_[c].text;
      const std::string label = configs_[c].label;
      lk.unlock();
      std::vector<std::string> ref = reference_for(text, label).rows;
      lk.lock();
      configs_[c].ref = std::move(ref);
      configs_[c].has_ref = true;
    }
  }

  [[nodiscard]] Config config(std::size_t c) {
    std::lock_guard<std::mutex> lk(mu_);
    return configs_.at(c);
  }
  [[nodiscard]] std::size_t config_count() {
    std::lock_guard<std::mutex> lk(mu_);
    return configs_.size();
  }
  void corrupt_first_reference() {
    std::lock_guard<std::mutex> lk(mu_);
    configs_.front().ref = corrupted(configs_.front().ref);
  }

 private:
  /// Index of the config with these bytes, adding it when new.  Labels
  /// follow the bytes: the daemon serves a resubmission from the journal
  /// with the rows (and label) of the first submission.
  std::size_t add_config(std::string text, bool& added) {
    const auto it = by_text_.find(text);
    added = it == by_text_.end();
    if (!added) return it->second;
    Config c;
    c.text = std::move(text);
    c.label = "cfg" + std::to_string(configs_.size());
    by_text_.emplace(c.text, configs_.size());
    configs_.push_back(std::move(c));
    first_sent_.push_back(reqs_.size());
    return configs_.size() - 1;
  }

  void generate() {
    const std::size_t i = reqs_.size();
    Request r;
    bool added = false;
    if (i == 0) {
      r.cfg = add_config(paper_system_text(), added);
      reqs_.push_back(r);
      return;
    }
    // Classes come in blocks of four, each a seeded order of fresh, fresh,
    // resubmit, edit, so every run has the same mix to within one block.
    if (block_.empty()) {
      block_ = {kFresh, kFresh, kResubmit, kEdit};
      for (std::size_t k = block_.size(); k > 1; --k) std::swap(block_[k - 1], block_[rng_() % k]);
    }
    r.cls = block_.back();
    block_.pop_back();
    // Configs old enough to have been answered and journaled.
    std::size_t eligible = 0;
    while (eligible < first_sent_.size() && first_sent_[eligible] + kMinAge <= i) ++eligible;
    if (r.cls != kFresh && eligible == 0) r.cls = kFresh;
    if (r.cls == kFresh) {
      hem::scenarios::SynthParams p;
      p.resources = std::uniform_int_distribution<int>(8, 16)(systems_);
      p.tasks = 2 * p.resources;
      p.layers = p.resources;
      p.seed = systems_();
      p.packed_permille = 300;
      r.cfg = add_config(shuffle_statements(hem::scenarios::to_config_text(
                                                hem::scenarios::build_synth_system(p)),
                                            rng_()),
                         added);
    } else {
      const std::size_t base = std::uniform_int_distribution<std::size_t>(0, eligible - 1)(rng_);
      if (r.cls == kResubmit) {
        r.cfg = base;
      } else {
        // An edit that reproduces known bytes is retried at another site.
        for (int attempt = 0; attempt < 8 && !added; ++attempt)
          r.cfg = add_config(edit_one_parameter(configs_[base].text, rng_), added);
      }
    }
    reqs_.push_back(r);
  }

  std::mt19937_64 rng_;
  std::mt19937_64 systems_;  // the fresh configs' systems, the same in every run
  std::mutex mu_;
  std::vector<Config> configs_;        // guarded by mu_
  std::vector<Request> reqs_;          // guarded by mu_
  std::vector<std::size_t> first_sent_;  // per config: request index that first sends it
  std::map<std::string, std::size_t> by_text_;  // config bytes -> index
  std::vector<Class> block_;                     // classes left in the current block
};

/// A `hemcpad serve` child process with default options.
class Daemon {
 public:
  Daemon(const std::string& hemcpad, const std::string& dir)
      : socket_(dir + "/d.sock"), journal_(dir + "/daemon.journal") {
    std::filesystem::remove(socket_);
    const std::string log = dir + "/hemcpad.log";
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      execl(hemcpad.c_str(), "hemcpad", "serve", "--socket", socket_.c_str(), "--journal",
            journal_.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("hemcpad exited during start-up; see " + log);
      }
      try {
        hem::daemon::Client c(socket_, 2000, 0);
        if (hem::daemon::json_find(c.ping(), "ok") == "true") return;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop();
    throw std::runtime_error("hemcpad did not answer ping within 20 s");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }
  [[nodiscard]] const std::string& journal() const noexcept { return journal_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Drain and reap the daemon; returns the peak RSS of the daemon and its
  /// reaped workers in MiB: the larger of the daemon's own VmHWM and the
  /// `ru_maxrss` that wait4 reports for the daemon and its children.
  /// Idempotent.
  double stop() {
    if (pid_ <= 0) return peak_mb_;
    std::ifstream proc_status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(proc_status, line))
      if (line.rfind("VmHWM:", 0) == 0) peak_mb_ = std::atof(line.c_str() + 6) / 1024.0;
    try {
      hem::daemon::Client c(socket_, 5000, 0);
      (void)c.drain();
    } catch (const std::exception&) {
      kill(pid_, SIGTERM);
    }
    rusage ru{};
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (wait4(pid_, &status, WNOHANG, &ru) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    const double with_workers_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    note("hemcpad peak RSS " + std::to_string(peak_mb_) + " MiB; with its workers " +
         std::to_string(with_workers_mb) + " MiB");
    peak_mb_ = std::max(peak_mb_, with_workers_mb);
    return peak_mb_;
  }

 private:
  std::string socket_;
  std::string journal_;
  pid_t pid_ = -1;
  double peak_mb_ = 0.0;
};

/// One timed request.  Times are offsets in ms from the phase start.
struct Record {
  std::size_t index = 0;
  Class cls = kFresh;
  std::size_t cfg = 0;
  double due = 0, sent = 0, reply = 0, wait_start = 0, done = 0;
  std::uint64_t id = 0;
  bool submitted = false;  ///< admitted; the result is still to be collected
  long duration_ms = 0;
  bool cached = false;
  bool warm = false;
  bool degraded = false;
  bool ok = false;  ///< answered with state=done (rows checked later)
  std::string error;
  std::vector<std::string> rows;
};

using Kv = std::vector<std::pair<std::string, std::string>>;

/// Submit one request on `c`; fills the submit half of `rec`.
void submit(hem::daemon::Client& c, Session& session, Record& rec, const std::string& client,
            Clock::time_point t0, std::atomic<long>& depth_max) {
  const Config cfg = session.config(rec.cfg);
  rec.sent = ms_between(t0, Clock::now());
  const std::string resp = c.submit(cfg.text, Kv{{"label", cfg.label}, {"client", client}});
  rec.reply = ms_between(t0, Clock::now());
  if (hem::daemon::json_find(resp, "ok") != "true") {
    rec.error = hem::daemon::json_find(resp, "error");
    if (rec.error.empty()) rec.error = "malformed submit reply";
    return;
  }
  rec.cached = hem::daemon::json_find(resp, "cached") == "true";
  if (const auto d = stats_key(resp, "queue_depth")) {
    long cur = depth_max.load();
    while (*d > cur && !depth_max.compare_exchange_weak(cur, static_cast<long>(*d))) {
    }
  }
  rec.id = std::stoull(hem::daemon::json_find(resp, "id"));
  rec.submitted = true;
}

/// Wait for the result of a submitted request on `c`.
void await(hem::daemon::Client& c, Record& rec, Clock::time_point t0) {
  rec.wait_start = ms_between(t0, Clock::now());
  const std::string res = c.wait_result(rec.id, 60'000);
  rec.done = ms_between(t0, Clock::now());
  const std::string state = hem::daemon::json_find(res, "state");
  if (state != "done") {
    rec.error = state.empty() ? hem::daemon::json_find(res, "error") : state;
    return;
  }
  rec.ok = true;
  rec.rows = hem::daemon::json_find_strings(res, "rows");
  rec.duration_ms = std::atol(hem::daemon::json_find(res, "duration_ms").c_str());
  rec.warm = std::atol(hem::daemon::json_find(res, "warm_seeded").c_str()) > 0;
  rec.degraded = hem::daemon::json_find(res, "degraded") == "true";
}

/// Record the benchmark's spans of one finished request.
void record_spans(Spans& spans, const Record& rec, Clock::time_point t0, bool open_loop) {
  if (!spans.enabled() || !rec.ok) return;
  const auto at = [t0](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double, std::milli>(ms));
  };
  const double start = open_loop ? rec.due : rec.sent;
  const std::int64_t op = spans.add("daemon_edit.request", at(start), at(rec.done), Spans::kNoParent, rec.index);
  if (open_loop) spans.add("bench.gen_lateness", at(rec.due), at(rec.sent), op, rec.index);
  spans.add("daemon.submit", at(rec.sent), at(rec.reply), op, rec.index);
  if (rec.wait_start > rec.reply) spans.add("bench.handoff", at(rec.reply), at(rec.wait_start), op, rec.index);
  spans.add("daemon.wait", at(rec.wait_start), at(rec.done), op, rec.index);
}

struct Phase {
  std::vector<Record> records;
  double wall_ms = 0.0;
};

/// Poisson arrivals at kOpenLoopRate over `seconds`, as ms offsets.  Random
/// gaps keep the schedule from locking onto the daemon's fixed poll ticks.
std::vector<double> arrivals(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    t += -std::log1p(-u) * 1e3 / kOpenLoopRate;
    if (t >= seconds * 1e3) return due;
    due.push_back(t);
  }
}

/// Open loop: requests due at the `due` offsets, sent from one generator
/// connection; kWaiters connections collect the results.
Phase open_loop(const std::string& sock, Session& session, const std::vector<double>& due,
                Spans& off, Spans& on, std::atomic<long>& depth_max, std::string& stats_before,
                std::string& stats_after) {
  const std::size_t count = due.size();
  Phase ph;
  ph.records.resize(count);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> ready;  // guarded by mu
  bool closed = false;            // guarded by mu
  hem::daemon::Client gen(sock, 30'000);
  stats_before = gen.stats();
  const auto t0 = Clock::now();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      // A waiter that cannot connect leaves its share unanswered: those
      // requests count as failed.
      try {
        hem::daemon::Client c(sock, 70'000);
        while (true) {
          std::size_t k = 0;
          {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return closed || !ready.empty(); });
            if (ready.empty()) return;
            k = ready.front();
            ready.pop_front();
          }
          Record& rec = ph.records[k];
          try {
            await(c, rec, t0);
          } catch (const std::exception& e) {
            rec.error = std::string("transport: ") + e.what();
          }
          record_spans(k % 2 == 0 ? off : on, rec, t0, true);
        }
      } catch (const std::exception& e) {
        note(std::string("result connection failed: ") + e.what());
      }
    });
  }
  for (std::size_t i = 0; i < count; ++i) {
    Record& rec = ph.records[i];
    const Request req = session.at(i);
    rec.index = i;
    rec.cls = req.cls;
    rec.cfg = req.cfg;
    rec.due = due[i];
    std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double, std::milli>(rec.due)));
    try {
      submit(gen, session, rec, "u" + std::to_string(i % 8), t0, depth_max);
    } catch (const std::exception& e) {
      rec.error = std::string("transport: ") + e.what();
    }
    if (rec.submitted) {
      std::lock_guard<std::mutex> lk(mu);
      ready.push_back(i);
      cv.notify_one();
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    closed = true;
  }
  cv.notify_all();
  for (auto& t : waiters) t.join();
  ph.wall_ms = ms_between(t0, Clock::now());
  stats_after = gen.stats();
  return ph;
}

/// Closed loop: 4 connections, each submitting its next request as soon as
/// the previous one is answered, until `seconds` have passed.
Phase saturation(const std::string& sock, Session& session, std::size_t first, double seconds,
                 int connections, Spans& spans, std::atomic<long>& depth_max) {
  Phase ph;
  std::mutex mu;
  std::atomic<std::size_t> next{first};
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  double last_done = 0.0;
  std::vector<std::thread> threads;
  for (int k = 0; k < connections; ++k) {
    threads.emplace_back([&, k] {
      std::unique_ptr<hem::daemon::Client> c;
      try {
        c = std::make_unique<hem::daemon::Client>(sock, 70'000);
      } catch (const std::exception& e) {
        note(std::string("saturation connection failed: ") + e.what());
        return;
      }
      while (Clock::now() < deadline) {
        Record rec;
        rec.index = next++;
        const Request req = session.at(rec.index);
        rec.cls = req.cls;
        rec.cfg = req.cfg;
        try {
          submit(*c, session, rec, "s" + std::to_string(k), t0, depth_max);
          if (rec.submitted) await(*c, rec, t0);
        } catch (const std::exception& e) {
          rec.error = std::string("transport: ") + e.what();
        }
        if (rec.done == 0.0) rec.done = ms_between(t0, Clock::now());
        rec.due = rec.sent;
        record_spans(spans, rec, t0, false);
        std::lock_guard<std::mutex> lk(mu);
        last_done = std::max(last_done, rec.done);
        ph.records.push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  ph.wall_ms = last_done;
  return ph;
}

std::vector<double> latencies(const std::vector<Record>& recs, int cls = -1) {
  std::vector<double> v;
  for (const Record& r : recs)
    if (r.ok && (cls < 0 || r.cls == cls)) v.push_back(r.done - r.due);
  return v;
}

}  // namespace

RunResult run_daemon_edit(const Options& o) {
  RunResult r;
  const double open_s = o.seconds * kOpenShare;
  const std::vector<double> due = arrivals(o.seed, open_s);
  const std::size_t open_count = due.size();
  const std::string dir = o.workdir + "/daemon";

  // Set-up: generate the session and its references, check Table 3, start
  // the daemon and warm it up.  Repeated; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  std::unique_ptr<Daemon> daemon;
  Dominance dom;
  std::string table3;
  for (int k = 0; k < o.setup_repeats; ++k) {
    daemon.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto t0 = Clock::now();
    session = std::make_unique<Session>(o.seed);
    (void)session->at(kPrepared - 1);
    session->reference();
    table3 = check_table3(session->config(0).ref);
    daemon = std::make_unique<Daemon>(o.hemcpad, dir);
    {
      // Warm-up: configs outside the session, so no session request is
      // served from the journal because of it.
      hem::daemon::Client c(daemon->socket(), 30'000);
      for (int w = 0; w < 3; ++w) {
        hem::scenarios::SynthParams p;
        p.resources = 8;
        p.tasks = 16;
        p.seed = 0xbe11c0de + static_cast<std::uint64_t>(w);
        const std::string resp = c.submit(hem::scenarios::to_config_text(hem::scenarios::build_synth_system(p)),
                                          Kv{{"label", "warmup"}});
        (void)c.wait_result(std::stoull(hem::daemon::json_find(resp, "id")), 60'000);
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // The simulator's dominance gate runs once, untimed (see kSetupRepeats).
  for (std::size_t c = 0; c < session->config_count(); ++c)
    check_dominance(session->config(c).text, dom);
  if (!table3.empty()) r.fail(table3);
  if (dom.violations != 0) r.fail("simulation exceeded an analytic bound: " + dom.first_violation);
  note("dominance: " + std::to_string(dom.systems_checked) + " system(s), " +
       std::to_string(dom.tasks_checked) + " task(s) checked, " + std::to_string(dom.violations) +
       " violation(s), " + std::to_string(dom.systems_skipped) + " skipped");
  if (o.corrupt_reference) session->corrupt_first_reference();

  std::vector<double> ping_ms;
  if (o.trace) {
    hem::daemon::Client c(daemon->socket());
    for (int i = 0; i < 50; ++i) {
      const auto t0 = Clock::now();
      (void)c.ping();
      ping_ms.push_back(ms_between(t0, Clock::now()));
    }
  }

  Spans off(false);
  Spans on(o.trace);
  std::atomic<long> depth_max{0};
  std::string stats_before, stats_after;
  const double cpu0 = proc_cpu_ms(daemon->pid());
  const Phase open = open_loop(daemon->socket(), *session, due, off, on, depth_max,
                               stats_before, stats_after);
  const Phase sat = saturation(daemon->socket(), *session, open_count, o.seconds - open_s,
                               o.width, on, depth_max);
  const double cpu = proc_cpu_ms(daemon->pid()) - cpu0;
  std::string final_stats;
  {
    hem::daemon::Client c(daemon->socket());
    final_stats = c.stats();
  }
  const double peak_mb = daemon->stop();

  // Verify every answer against its in-process jobs=1 reference.
  session->reference();
  long failed = 0, rejected = 0, degraded = 0;
  std::size_t counts[3] = {0, 0, 0};
  for (const Phase* ph : {&open, &sat}) {
    for (const Record& rec : ph->records) {
      ++counts[rec.cls];
      if (!rec.ok) {
        ++failed;
        if (rec.error == "overloaded" || rec.error == "quota") ++rejected;
        note("request " + std::to_string(rec.index) + " (" + kClassName[rec.cls] + ") failed: " + rec.error);
        continue;
      }
      degraded += rec.degraded ? 1 : 0;
      if (rec.rows != session->config(rec.cfg).ref) {
        ++failed;
        r.fail("daemon result of request " + std::to_string(rec.index) + " (" + kClassName[rec.cls] +
               ") differs from the in-process reference");
      }
    }
  }
  const double total = static_cast<double>(open.records.size() + sat.records.size());
  r.attempted = static_cast<long>(total);
  r.failed = failed;
  note("mix: " + std::to_string(counts[kFresh]) + " fresh, " + std::to_string(counts[kResubmit]) +
       " resubmit, " + std::to_string(counts[kEdit]) + " edit; open loop " +
       std::to_string(open.records.size()) + " at " + std::to_string(kOpenLoopRate) +
       "/s, saturation " + std::to_string(sat.records.size()));

  // Open-loop hygiene: generator lateness and backlog growth.
  std::vector<double> lateness;
  for (const Record& rec : open.records) lateness.push_back(rec.sent - rec.due);
  const double late_p90 = quantile(lateness, 0.9);
  if (late_p90 > 5.0) note("WARNING: the open-loop generator fell behind (lateness p90 " + std::to_string(late_p90) + " ms)");
  const auto q0 = stats_key(stats_before, "queue_depth");
  const auto q1 = stats_key(stats_after, "queue_depth");
  if (q0 && q1 && *q1 > *q0 + 2)
    note("WARNING: backlog grew across the open loop (" + std::to_string(*q0) + " -> " + std::to_string(*q1) + ")");

  const std::vector<double> open_lat = latencies(open.records);
  if (!o.trace) {
    r.set("setup_s", median(setup_s), "s");
    r.set("latency_ms_p50", quantile(open_lat, 0.5), "ms");
    r.set("latency_ms_p90", quantile(open_lat, 0.9), "ms");
    r.set("throughput_per_s", static_cast<double>(latencies(sat.records).size()) / (sat.wall_ms / 1e3), "1/s");
    r.set("cpu_ms_per_op", cpu / total, "ms");
    r.set("peak_rss_mb", peak_mb, "MiB");
    r.set("success_rate", (total - static_cast<double>(failed)) / total, "fraction");
    return r;
  }

  // Per-layer metrics.
  std::vector<double> submit_ms, wait_ms, on_lat, off_lat;
  double attempt_ms = 0.0, latency_ms = 0.0, fresh_runs = 0.0, warm_runs = 0.0;
  for (const Record& rec : open.records) {
    if (!rec.ok) continue;
    submit_ms.push_back(rec.reply - rec.sent);
    wait_ms.push_back(rec.done - rec.wait_start);
    (rec.index % 2 == 0 ? off_lat : on_lat).push_back(rec.done - rec.due);
    attempt_ms += static_cast<double>(rec.duration_ms);
    latency_ms += rec.done - rec.due;
    if (!rec.cached) {
      fresh_runs += 1.0;
      warm_runs += rec.warm ? 1.0 : 0.0;
    }
  }
  r.set("daemon.ping_ms_p50", median(ping_ms), "ms");
  r.set("daemon.submit_ms_p50", median(submit_ms), "ms");
  r.set("daemon.wait_ms_p50", median(wait_ms), "ms");
  r.set("daemon.fresh_ms_p50", median(latencies(open.records, kFresh)), "ms");
  r.set("daemon.resubmit_ms_p50", median(latencies(open.records, kResubmit)), "ms");
  r.set("daemon.edit_ms_p50", median(latencies(open.records, kEdit)), "ms");
  r.set("daemon.attempt_share", latency_ms > 0 ? attempt_ms / latency_ms : 0.0, "fraction");
  const std::string no_key = "hemcpad stats no longer reports this key";
  r.set_or_absent("daemon.journal_hits", stats_key(final_stats, "journal_hits"), "count", no_key);
  r.set_or_absent("daemon.cache_exact_hits", stats_key(final_stats, "cache_exact_hits"), "count", no_key);
  r.set_or_absent("daemon.cache_base_hits", stats_key(final_stats, "cache_base_hits"), "count", no_key);
  r.set("daemon.warm_seeded_frac", fresh_runs > 0 ? warm_runs / fresh_runs : 0.0, "fraction");
  r.set("daemon.rejected", static_cast<double>(rejected), "count");
  r.set("daemon.queue_depth_max", static_cast<double>(depth_max.load()), "count");
  r.set("bench.gen_lateness_ms_p90", late_p90, "ms");
  r.set("bench.trace_delta_frac", median(on_lat) / median(off_lat) - 1.0, "fraction");
  r.set_or_absent("exec.watchdog_cancels", stats_key(final_stats, "watchdog_cancels"), "count", no_key);
  r.set_or_absent("exec.crash_respawns", stats_key(final_stats, "crashed"), "count", no_key);
  r.set("exec.degraded_jobs", static_cast<double>(degraded), "count");
  double sat_attempt_ms = 0.0;
  for (const Record& rec : sat.records) sat_attempt_ms += static_cast<double>(rec.duration_ms);
  const auto width = stats_key(final_stats, "pool_width");
  r.set_or_absent("exec.slot_busy_frac",
                  width ? std::optional<double>(sat_attempt_ms / (sat.wall_ms * *width)) : std::nullopt,
                  "fraction", no_key);
  probe_journal(daemon->journal(), dir + "/journal.probe", r);
  probe_worker_rtt(r);

  std::vector<std::string> sample;
  for (std::size_t c = 0; c < std::min<std::size_t>(session->config_count(), 16); ++c)
    sample.push_back(session->config(c).text);
  replay_model_layers(sample, o.width, 3, r);
  finish_spans(on, "daemon_edit.request", o.workdir + "/trace-daemon_edit.json", r);
  return r;
}

}  // namespace hembench
