#pragma once

/// \file job_pool.hpp
/// Reusable thread-per-job worker pool with a watchdog, extracted from the
/// batch runner so the analysis daemon (`src/daemon/`) can share the exact
/// soft-cancel -> hard-abandon machinery that `hemcpa --batch` ships.
///
/// The pool owns no queue: callers keep their own ready lists (the batch
/// scheduler's retry/backoff deque, the daemon's per-client fair queues)
/// and dispatch with `start()` whenever `available()` says a slot is free.
/// Each job gets a fresh CancelToken and an optional wall-clock budget; a
/// monitor thread soft-cancels jobs at their budget.  What happens when the
/// grace period passes without the cancel taking effect depends on how the
/// job was dispatched:
///
///   * with a **kill hook** (process-isolated jobs: the hook SIGKILLs the
///     worker child) the watchdog invokes it once and waits a second grace
///     window — the reaped worker unwinds within milliseconds, the job is
///     joined like any finished one, and nothing leaks;
///   * without one (legacy in-process jobs) the slot is marked abandoned
///     and its thread detached, exactly the old hard-abandon behaviour.
///
/// `wait_terminal()` hands terminal jobs back to the caller — finished
/// workers are joined, abandoned workers are detached.
///
/// Memory safety of abandonment: a worker thread only ever touches its own
/// Slot and the shared Sync block, both held via shared_ptr, so a detached
/// worker that wakes up minutes later (stuck in a busy-window fixpoint that
/// ignores its token) can never reach freed pool or caller state.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.hpp"

namespace hem::exec {

class JobPool {
 public:
  /// One dispatched job.  `phase`, `outcome_ready`, and the watchdog
  /// bookkeeping are guarded by the pool's internal mutex; `token` and
  /// `context` are safe to touch from any thread.
  struct Slot {
    enum Phase { kRunning, kFinished, kAbandoned };

    std::uint64_t id = 0;       ///< pool-unique dispatch id
    std::string label;          ///< caller-provided display/log label
    long budget_ms = 0;         ///< wall-clock budget; 0 = no watchdog
    CancelToken token;
    std::shared_ptr<void> context;  ///< caller payload, opaque to the pool

    /// Escalation hook set at dispatch: forcibly end the job's work (the
    /// isolated dispatch path SIGKILLs the worker child).  Must be
    /// thread-safe and idempotent; invoked at most once by the watchdog
    /// when the grace period expires.  Null = legacy detach-on-abandon.
    std::function<void()> kill;

    // Guarded by the pool mutex from here on.
    Phase phase = kRunning;
    std::chrono::steady_clock::time_point started;
    bool soft_cancelled = false;  ///< watchdog or escalating cancel armed
    std::chrono::steady_clock::time_point soft_cancel_at;
    bool watchdog_fired = false;  ///< soft-cancel came from the budget
    bool kill_fired = false;      ///< the kill hook has been invoked
    std::thread worker;
  };
  using Handle = std::shared_ptr<Slot>;

  /// A pool running at most `width` jobs with `grace_ms` between a
  /// soft-cancel and abandonment.  `log` (optional) receives watchdog
  /// progress lines; it is invoked without the pool lock held.
  JobPool(int width, long grace_ms, std::function<void(const std::string&)> log = nullptr);

  /// Cancels whatever still runs (kShutdown), waits out the grace period,
  /// and detaches anything that refuses to die.
  ~JobPool();

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] std::size_t running() const;
  [[nodiscard]] bool available() const { return running() < static_cast<std::size_t>(width_); }

  /// Dispatch `work` on a fresh thread.  The callable runs exactly once and
  /// must not throw (wrap analysis in an exception firewall first; an
  /// escaped exception is swallowed to keep a poisoned job from taking the
  /// process down).  Never blocks; callers are expected to respect
  /// `available()` but over-dispatch only costs threads, not correctness.
  /// `kill` (optional) is the watchdog's grace-expiry escalation; see
  /// Slot::kill.
  Handle start(std::string label, long budget_ms, std::shared_ptr<void> context,
               std::function<void(const CancelToken&)> work,
               std::function<void()> kill = nullptr);

  /// Fire `handle`'s token with `reason`.  With `escalate` the grace timer
  /// is armed too: a worker that does not honour the cancel within grace_ms
  /// is abandoned (the batch shutdown path passes false so a drain waits
  /// indefinitely and preserves its journal/resume semantics).
  void cancel(const Handle& handle, CancelReason reason, bool escalate);

  /// cancel() every job still running.
  void cancel_all(CancelReason reason, bool escalate);

  /// Wait up to `timeout` for at least one job to turn terminal, or for a
  /// wake(), and return all terminal handles (possibly none), removed from
  /// the active set.  Finished workers are joined, abandoned workers
  /// detached; `Slot::phase` tells which.
  [[nodiscard]] std::vector<Handle> wait_terminal(std::chrono::milliseconds timeout);

  /// Make the current (or, if none is blocked, the next) wait_terminal()
  /// return early: the caller has new work to dispatch or a state change to
  /// observe, and should not sleep out its timeout.
  void wake();

  [[nodiscard]] long watchdog_cancels() const;
  [[nodiscard]] long watchdog_kills() const;
  [[nodiscard]] long abandoned() const;

 private:
  /// State shared with worker threads (and therefore with detached,
  /// abandoned workers): keep it alive via shared_ptr independently of the
  /// pool object itself.
  struct Sync;

  void watchdog_loop();

  const int width_;
  const long grace_ms_;
  const std::function<void(const std::string&)> log_;
  std::shared_ptr<Sync> sync_;
  std::vector<Handle> active_;  ///< guarded by sync_->mx
  std::uint64_t next_id_ = 1;   ///< guarded by sync_->mx
  long watchdog_cancels_ = 0;   ///< guarded by sync_->mx
  long watchdog_kills_ = 0;     ///< guarded by sync_->mx
  long abandoned_ = 0;          ///< guarded by sync_->mx
  bool stop_watchdog_ = false;  ///< guarded by sync_->mx
  bool woken_ = false;          ///< wake() pending; guarded by sync_->mx
  std::thread watchdog_;
};

}  // namespace hem::exec
