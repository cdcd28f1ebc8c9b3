/// \file daemon_fault_test.cpp
/// Fault-injection suite for the analysis daemon: misbehaving peers
/// (disconnects mid-frame, half-open sockets, oversized floods, protocol
/// garbage) and concurrent cancel storms.  Every test asserts the daemon
/// stays responsive, leaks no jobs, and keeps its caches and journal
/// consistent — the harness the robustness contract is verified against,
/// and the suite CI runs under TSan/ASan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "exec/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace hem::daemon {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

const char* kTinyConfig =
    "resource CPU1 spp\n"
    "source s1 periodic period=10\n"
    "task A resource=CPU1 priority=1 cet=2\n"
    "activate A from=s1\n";

/// A job that runs for a while: the EDF offset scan pairs every activation
/// of one task in the busy period with every deadline of the other, and
/// the busy period grows with the jitter, so the analysis time grows with
/// its square (about 0.3 s at jitter 2e6 and 1.1 s at 4e6 in a
/// RelWithDebInfo build on a 4-core x86 host).  Distinct jitters give
/// distinct configs.
std::string slow_config(long jitter) {
  return "resource R edf\n"
         "source s sem period=6000 jitter=" + std::to_string(jitter) + "\n"
         "source t periodic period=6000\n"
         "task H resource=R priority=1 cet=2700 deadline=600000\n"
         "task L resource=R priority=2 cet=2400 deadline=300000\n"
         "activate H from=s\n"
         "activate L from=t\n"
         "option overload_check=off\n";
}

bool wait_until(const std::function<bool()>& pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

/// Raw AF_UNIX connection for simulating peers the Client class refuses to
/// be: half-open sockets, mid-frame disconnects, garbage writers.
class RawPeer {
 public:
  explicit RawPeer(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", socket_path.c_str());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawPeer() { close(); }
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  IoStatus send(const std::string& data) { return write_all(fd_, data, 2000); }
  IoStatus read_line(std::string& line, long timeout_ms) {
    LineReader reader(fd_);
    return reader.read_line(line, timeout_ms);
  }
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

ServerOptions fault_options(const std::string& tag) {
  ServerOptions o;
  // Pid-qualified path: concurrent test processes must not share sockets.
  o.socket_path =
      (fs::path(::testing::TempDir()) / (tag + "." + std::to_string(::getpid()) + ".sock"))
          .string();
  o.pool_width = 2;
  o.grace_ms = 5000;
  o.io_timeout_ms = 1000;
  o.idle_timeout_ms = 120'000;  // tests that need idle expiry shrink this
  return o;
}

class DaemonFaultTest : public ::testing::Test {
 protected:
  void start(ServerOptions opts) {
    fs::remove(opts.socket_path);
    server_ = std::make_unique<Server>(std::move(opts));
    server_->start();
  }
  void TearDown() override {
    if (server_ && !server_->stopped()) server_->request_force_stop();
    if (server_) (void)server_->wait();
  }
  [[nodiscard]] Client connect() const { return Client(server_->socket_path()); }
  [[nodiscard]] std::string stat(const std::string& key) const {
    Client probe(server_->socket_path());
    return json_find(probe.stats(), key);
  }

  std::unique_ptr<Server> server_;
};

TEST_F(DaemonFaultTest, DisconnectMidSubmitBodyLeavesDaemonResponsive) {
  start(fault_options("midframe"));
  for (int round = 0; round < 8; ++round) {
    RawPeer peer(server_->socket_path());
    ASSERT_TRUE(peer.connected());
    // Promise 4096 payload bytes, deliver 10, vanish.
    ASSERT_EQ(peer.send("hemcpad1 submit bytes=4096\n0123456789"), IoStatus::kOk);
    peer.close();
  }
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
  const std::string sub = client.submit(kTinyConfig);
  ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
  const std::string res = client.wait_result(std::stoull(json_find(sub, "id")), 20'000);
  EXPECT_EQ(json_find(res, "state"), "done");
  EXPECT_EQ(stat("submitted"), "1");  // the truncated frames admitted nothing
}

TEST_F(DaemonFaultTest, DisconnectCancelsOrphanedRunningJob) {
  start(fault_options("orphan"));
  std::uint64_t id = 0;
  {
    Client victim = connect();
    const std::string sub = victim.submit(slow_config(8'000'002));
    ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
    id = std::stoull(json_find(sub, "id"));
    victim.close();  // walk away without collecting the result
  }
  Client observer = connect();
  ASSERT_TRUE(wait_until(
      [&] {
        const std::string st =
            observer.request("status", {{"id", std::to_string(id)}});
        return json_find(st, "state") == "cancelled";
      },
      20s));
  const std::string res = observer.request("result", {{"id", std::to_string(id)}});
  EXPECT_EQ(json_find(res, "cancel_reason"), "disconnect");
  EXPECT_EQ(stat("disconnect_cancels"), "1");
}

TEST_F(DaemonFaultTest, DisconnectCancelsOrphanedQueuedJobs) {
  ServerOptions opts = fault_options("orphanq");
  opts.pool_width = 1;
  start(opts);
  Client blocker_client = connect();
  const std::string blocker = blocker_client.submit(slow_config(8'000'003));
  ASSERT_EQ(json_find(blocker, "ok"), "true");
  std::uint64_t queued = 0;
  {
    Client victim = connect();
    const std::string sub = victim.submit(kTinyConfig);
    ASSERT_EQ(json_find(sub, "ok"), "true");
    queued = std::stoull(json_find(sub, "id"));
  }  // disconnects with the job still queued
  Client observer = connect();
  ASSERT_TRUE(wait_until(
      [&] {
        const std::string st = observer.request("status", {{"id", std::to_string(queued)}});
        return json_find(st, "state") == "cancelled";
      },
      10s));
  const std::string res = observer.request("result", {{"id", std::to_string(queued)}});
  EXPECT_EQ(json_find(res, "cancel_reason"), "disconnect");
}

TEST_F(DaemonFaultTest, DetachedJobSurvivesDisconnect) {
  start(fault_options("detach"));
  std::uint64_t id = 0;
  {
    Client fire_and_forget = connect();
    const std::string sub = fire_and_forget.submit(kTinyConfig, {{"detach", "1"}});
    ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
    id = std::stoull(json_find(sub, "id"));
  }
  Client observer = connect();
  const std::string res = observer.wait_result(id, 20'000);
  EXPECT_EQ(json_find(res, "state"), "done") << res;
  EXPECT_EQ(stat("disconnect_cancels"), "0");
}

TEST_F(DaemonFaultTest, HalfOpenConnectionTimesOutAndFreesItsSlot) {
  ServerOptions opts = fault_options("halfopen");
  opts.idle_timeout_ms = 200;
  opts.max_connections = 2;
  start(opts);
  RawPeer zombie(server_->socket_path());
  ASSERT_TRUE(zombie.connected());
  // Say nothing.  The daemon must hang up on its own.
  std::string line;
  EXPECT_EQ(zombie.read_line(line, 5000), IoStatus::kClosed);

  // Both connection slots are usable again afterwards.
  Client a = connect();
  Client b = connect();
  EXPECT_EQ(json_find(a.ping(), "ok"), "true");
  EXPECT_EQ(json_find(b.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, ConnectionLimitTurnsAwayExtraPeersExplicitly) {
  ServerOptions opts = fault_options("connlimit");
  opts.max_connections = 1;
  start(opts);
  Client occupant = connect();
  ASSERT_EQ(json_find(occupant.ping(), "ok"), "true");
  RawPeer extra(server_->socket_path());
  ASSERT_TRUE(extra.connected());
  std::string line;
  ASSERT_EQ(extra.read_line(line, 5000), IoStatus::kOk);
  EXPECT_EQ(json_find(line, "error"), "busy") << line;
  // The admitted connection keeps working.
  EXPECT_EQ(json_find(occupant.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, OversizedFrameFloodIsShedNotBuffered) {
  ServerOptions opts = fault_options("flood");
  opts.max_frame_bytes = 1024;
  start(opts);
  for (int i = 0; i < 20; ++i) {
    RawPeer peer(server_->socket_path());
    ASSERT_TRUE(peer.connected());
    // Announce a frame far over the cap; the daemon must reject on the
    // header alone and close without reading the body.
    ASSERT_EQ(peer.send("hemcpad1 submit bytes=10485760\n"), IoStatus::kOk);
    std::string line;
    ASSERT_EQ(peer.read_line(line, 5000), IoStatus::kOk);
    EXPECT_EQ(json_find(line, "error"), "too_large") << line;
  }
  EXPECT_EQ(stat("rejected_too_large"), "20");
  EXPECT_EQ(stat("submitted"), "0");
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, OversizedRequestLineIsAProtocolViolation) {
  start(fault_options("longline"));
  RawPeer peer(server_->socket_path());
  ASSERT_TRUE(peer.connected());
  ASSERT_EQ(peer.send(std::string(2 * kMaxLineBytes, 'x')), IoStatus::kOk);
  std::string line;
  ASSERT_EQ(peer.read_line(line, 5000), IoStatus::kOk);
  EXPECT_EQ(json_find(line, "error"), "protocol") << line;
  EXPECT_EQ(peer.read_line(line, 5000), IoStatus::kClosed);  // connection dropped
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, GarbageLinesGetExplicitProtocolErrors) {
  start(fault_options("garbage"));
  for (const std::string junk :
       {std::string("hello daemon\n"), std::string("hemcpad9 ping\n"),
        std::string("hemcpad1\n"), std::string("hemcpad1 submit =broken\n"),
        std::string("\x01\x02\x03\n")}) {
    RawPeer peer(server_->socket_path());
    ASSERT_TRUE(peer.connected());
    ASSERT_EQ(peer.send(junk), IoStatus::kOk);
    std::string line;
    ASSERT_EQ(peer.read_line(line, 5000), IoStatus::kOk) << "junk: " << junk;
    EXPECT_EQ(json_find(line, "ok"), "false");
    EXPECT_EQ(json_find(line, "error"), "protocol");
  }
  Client client = connect();
  EXPECT_EQ(json_find(client.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, ConcurrentCancelStormLeaksNothing) {
  ServerOptions opts = fault_options("storm");
  opts.pool_width = 2;
  opts.queue_max = 128;
  opts.client_quota = 64;
  start(opts);

  constexpr int kThreads = 6;
  constexpr int kJobsPerThread = 5;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client(server_->socket_path());
      for (int j = 0; j < kJobsPerThread; ++j) {
        // Mix fast jobs with slow ones that will be cancel-stormed.
        const bool slow = (t + j) % 2 == 0;
        const std::string cfg =
            slow ? slow_config(4'000'000 + t * 100 + j) : kTinyConfig;
        const std::string sub =
            client.submit(cfg, {{"client", "storm" + std::to_string(t)}});
        if (json_find(sub, "ok") != "true") continue;  // overload shed is legal
        admitted.fetch_add(1);
        const std::uint64_t id = std::stoull(json_find(sub, "id"));
        ids[t].push_back(id);
        // Immediately storm the new job (and a neighbour) with cancels.
        (void)client.cancel(id);
        (void)client.cancel(id);
        if (!ids[t].empty()) (void)client.cancel(ids[t].front());
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_GT(admitted.load(), 0);

  // No leaked jobs: the queue and the pool drain to zero...
  ASSERT_TRUE(wait_until(
      [&] { return stat("queue_depth") == "0" && stat("running") == "0"; }, 30s));
  // ...and every admitted job reached a terminal state.
  Client audit = connect();
  int terminal = 0;
  for (const auto& batch : ids) {
    for (const std::uint64_t id : batch) {
      const std::string st = audit.request("status", {{"id", std::to_string(id)}});
      const std::string state = json_find(st, "state");
      EXPECT_TRUE(state == "done" || state == "failed" || state == "cancelled" ||
                  state == "abandoned")
          << st;
      ++terminal;
    }
  }
  EXPECT_EQ(terminal, admitted.load());
  EXPECT_EQ(json_find(audit.ping(), "ok"), "true");
}

TEST_F(DaemonFaultTest, DrainUnderLoadJournalsEveryAdmittedJob) {
  ServerOptions opts = fault_options("drainload");
  opts.pool_width = 1;
  opts.journal_path = opts.socket_path + ".journal";
  fs::remove(opts.journal_path);
  start(opts);

  std::vector<std::string> fingerprints;
  Client client = connect();
  for (int i = 0; i < 5; ++i) {
    // Distinct tiny configs (varied period) so each is a real run.
    const std::string cfg =
        "resource CPU1 spp\nsource s1 periodic period=" + std::to_string(10 + i) +
        "\ntask A resource=CPU1 priority=1 cet=2\nactivate A from=s1\n";
    const std::string sub = client.submit(cfg);
    ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
    fingerprints.push_back(json_find(sub, "fingerprint"));
  }
  const std::string drain = client.drain();
  EXPECT_EQ(json_find(drain, "ok"), "true");
  client.close();
  EXPECT_EQ(server_->wait(), 0);  // clean drain: everything ran to completion

  exec::Journal journal(opts.journal_path);
  ASSERT_TRUE(journal.load());
  std::set<std::string> journaled;
  for (const auto& entry : journal.entries())
    journaled.insert(exec::fingerprint_hex(entry.fingerprint));
  for (const auto& fp : fingerprints)
    EXPECT_TRUE(journaled.count(fp) == 1) << "fingerprint " << fp << " not journaled";
}

TEST_F(DaemonFaultTest, CorruptJournalIsQuarantinedNotFatal) {
  ServerOptions opts = fault_options("corrupt");
  opts.journal_path = opts.socket_path + ".journal";
  {
    std::FILE* f = std::fopen(opts.journal_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a journal at all\x01\x02\n", f);
    std::fclose(f);
  }
  start(opts);  // must come up, quarantining the corrupt file
  Client client = connect();
  const std::string sub = client.submit(kTinyConfig);
  ASSERT_EQ(json_find(sub, "ok"), "true") << sub;
  const std::string res = client.wait_result(std::stoull(json_find(sub, "id")), 20'000);
  EXPECT_EQ(json_find(res, "state"), "done");
  EXPECT_TRUE(fs::exists(opts.journal_path + ".corrupt"));
}

}  // namespace
}  // namespace hem::daemon

#endif  // POSIX
