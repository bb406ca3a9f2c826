// Fault-injection tests: every fault class the FaultyCommunicator can
// inject (docs/FAULTS.md) must produce either a successful retry or a
// typed CommError -- never an abort.  Rank crashes use REAL forked
// processes so the launcher's failure verdicts and the survivors' fast
// kPeerExited detection are exercised end to end.
#include "comms/faults.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "comms/socket.h"

namespace svelat::comms {
namespace {

using Payload = std::vector<std::uint8_t>;

FaultEvent event(FaultOp op, std::uint64_t at, FaultKind kind, int count = 1) {
  FaultEvent e;
  e.op = op;
  e.at = at;
  e.kind = kind;
  e.count = count;
  return e;
}

TEST(FaultyCommunicator, DelayIsAbsorbedByRetryWithBackoff) {
  SimCommunicator inner(2);
  FaultSchedule sched;
  sched.events.push_back(event(FaultOp::kSend, 0, FaultKind::kDelay, 2));
  FaultyCommunicator comm(inner, sched);
  RetryPolicy fast;
  fast.backoff_ms = 1;
  comm.set_retry_policy(fast);

  comm.send(0, 1, 7, Payload{1, 2, 3});  // two faulted attempts, then success
  EXPECT_EQ(comm.faults_injected(), 2u);
  EXPECT_EQ(comm.retries(), 2u);
  EXPECT_EQ(comm.recv(1, 0, 7), (Payload{1, 2, 3}));
}

TEST(FaultyCommunicator, DelayBeyondTheRetryBudgetThrowsTimeout) {
  SimCommunicator inner(2);
  FaultSchedule sched;
  sched.events.push_back(event(FaultOp::kSend, 0, FaultKind::kDelay, 99));
  FaultyCommunicator comm(inner, sched);
  RetryPolicy one;
  one.max_attempts = 1;
  comm.set_retry_policy(one);

  try {
    comm.send(0, 1, 7, Payload{1});
    FAIL() << "send with an exhausted retry budget must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kTimeout) << e.what();
  }
}

TEST(FaultyCommunicator, SpuriousEofIsRetriedLikeATimeout) {
  SimCommunicator inner(2);
  FaultSchedule sched;
  sched.events.push_back(event(FaultOp::kRecv, 0, FaultKind::kSpuriousEof, 1));
  FaultyCommunicator comm(inner, sched);
  RetryPolicy fast;
  fast.backoff_ms = 1;
  comm.set_retry_policy(fast);

  comm.send(0, 1, 3, Payload{5});
  EXPECT_EQ(comm.recv(1, 0, 3), (Payload{5}));  // one glitch, then delivered
  EXPECT_EQ(comm.faults_injected(), 1u);
  EXPECT_EQ(comm.retries(), 1u);
}

TEST(FaultyCommunicator, TornFrameIsFatalDespiteRetries) {
  SimCommunicator inner(2);
  FaultSchedule sched;
  sched.events.push_back(event(FaultOp::kSend, 0, FaultKind::kTornFrame));
  FaultyCommunicator comm(inner, sched);

  try {
    comm.send(0, 1, 7, Payload{1});
    FAIL() << "a torn frame must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kTornFrame) << e.what();
  }
  EXPECT_EQ(comm.retries(), 0u);  // non-transient: no retry was attempted
}

TEST(FaultyCommunicator, OperationCounterAdvancesOnCompletionOnly) {
  SimCommunicator inner(2);
  FaultSchedule sched;
  sched.events.push_back(event(FaultOp::kSend, 1, FaultKind::kDelay, 1));
  FaultyCommunicator comm(inner, sched);
  RetryPolicy fast;
  fast.backoff_ms = 1;
  comm.set_retry_policy(fast);

  comm.send(0, 1, 7, Payload{0});  // op 0: clean
  comm.send(0, 1, 7, Payload{1});  // op 1: one fault, retried
  comm.send(0, 1, 7, Payload{2});  // op 2: clean (the event is spent)
  EXPECT_EQ(comm.faults_injected(), 1u);
  EXPECT_EQ(comm.sends_done(), 3u);
}

TEST(FaultSchedule, SeededScheduleIsDeterministic) {
  const FaultSchedule a = FaultSchedule::seeded(42, /*rank=*/1);
  const FaultSchedule b = FaultSchedule::seeded(42, /*rank=*/1);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_FALSE(a.events.empty());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].op, b.events[i].op);
    EXPECT_EQ(a.events[i].at, b.events[i].at);
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].count, b.events[i].count);
  }
  for (const FaultEvent& e : a.events)  // transient kinds only: soaks complete
    EXPECT_TRUE(e.kind == FaultKind::kDelay || e.kind == FaultKind::kSpuriousEof);
}

TEST(FaultSchedule, SeededTransientsAreAbsorbedBySim) {
  SimCommunicator inner(2);
  FaultyCommunicator comm(inner, FaultSchedule::seeded(7, 0, /*nops=*/32, /*rate=*/4));
  RetryPolicy fast;
  fast.backoff_ms = 1;
  comm.set_retry_policy(fast);

  for (int i = 0; i < 32; ++i) {
    comm.send(0, 1, i, Payload{static_cast<std::uint8_t>(i)});
    EXPECT_EQ(comm.recv(1, 0, i), Payload{static_cast<std::uint8_t>(i)});
  }
  EXPECT_GT(comm.faults_injected(), 0u);  // the soak really was faulted
}

// --- real socket-stream fault classes ---------------------------------------

TEST(SocketFaults, EofInsideAFrameIsTorn) {
  auto mesh = make_socket_mesh(2);
  SocketCommunicator survivor(2, 1, std::move(mesh[1]), 200);
  const int raw = mesh[0][1];  // rank 0's side, driven by hand
  const std::uint8_t partial[10] = {0x54, 0x4c, 0x56, 0x53, 0, 0, 0, 0, 1, 0};
  ASSERT_EQ(::send(raw, partial, sizeof partial, 0),
            static_cast<ssize_t>(sizeof partial));
  ::close(raw);  // EOF with a frame header half-written

  Payload out;
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kTornFrame);
  // The verdict is sticky: the stream cannot be resynchronized.
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kTornFrame);
  try {
    (void)survivor.recv(1, 0, 1);
    FAIL() << "a torn stream must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kTornFrame) << e.what();
  }
}

TEST(SocketFaults, BadMagicIsDesync) {
  auto mesh = make_socket_mesh(2);
  SocketCommunicator survivor(2, 1, std::move(mesh[1]), 200);
  const int raw = mesh[0][1];
  std::uint8_t frame[24] = {};
  frame[0] = 0xde;  // not "SVLT"
  frame[1] = 0xad;
  ASSERT_EQ(::send(raw, frame, sizeof frame, 0), static_cast<ssize_t>(sizeof frame));

  Payload out;
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kDesync);
  ::close(raw);
}

TEST(SocketFaults, StalledPartialFrameIsTornNotTimeout) {
  // The sender wrote half a header and then hung (not closed).  Waiting
  // longer cannot resynchronize the stream: the verdict is kTornFrame,
  // and it must arrive within the bounded timeout rather than hanging.
  auto mesh = make_socket_mesh(2);
  SocketCommunicator survivor(2, 1, std::move(mesh[1]), 100);
  const int raw = mesh[0][1];
  const std::uint8_t partial[4] = {0x54, 0x4c, 0x56, 0x53};
  ASSERT_EQ(::send(raw, partial, sizeof partial, 0),
            static_cast<ssize_t>(sizeof partial));

  Payload out;
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kTornFrame);
  ::close(raw);
}

// --- rank-crash detection with real processes -------------------------------

TEST(RankFailure, CrashedRankYieldsSignalVerdictAndSurvivorsFailFast) {
  const std::string log_dir =
      ::testing::TempDir() + "svelat_faults_logs" + std::to_string(::getpid());
  std::filesystem::create_directories(log_dir);
  LaunchOptions opt;
  opt.log_dir = log_dir;
  opt.recv_timeout_ms = 10000;  // survivors must NOT need this long

  const auto report = run_ranks(
      2,
      [](int rank, SocketCommunicator& socket_comm) {
        if (rank == 1) {
          FaultSchedule sched;
          sched.events.push_back(event(FaultOp::kSend, 0, FaultKind::kCrash));
          FaultyCommunicator comm(socket_comm, sched);
          comm.send(1, 0, 5, Payload{1});  // SIGKILLs this process
          return 9;                        // unreachable
        }
        (void)socket_comm.recv(0, 1, 5);  // peer dies: CommError -> exit 84
        return 0;
      },
      opt);

  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.ranks.size(), 2u);
  // The crashed rank is decoded as a signal death, distinct from any exit
  // code; the survivor's typed kPeerExited verdict becomes exit 84.
  EXPECT_FALSE(report.ranks[1].exited);
  EXPECT_EQ(report.ranks[1].term_signal, SIGKILL);
  EXPECT_TRUE(report.ranks[0].exited);
  EXPECT_EQ(report.ranks[0].exit_code, kCommFailureExitCode);
  // describe() names the signal and points at the rank logs.
  const std::string desc = report.describe();
  EXPECT_NE(desc.find("killed by signal 9"), std::string::npos) << desc;
  EXPECT_NE(desc.find("rank1.log"), std::string::npos) << desc;
  EXPECT_NE(desc.find("comm failure"), std::string::npos) << desc;
  // The survivor's log carries the typed diagnostic.
  const std::vector<std::uint8_t> log = [&] {
    std::FILE* f = std::fopen((log_dir + "/rank0.log").c_str(), "rb");
    std::vector<std::uint8_t> bytes(4096);
    const std::size_t n = f ? std::fread(bytes.data(), 1, bytes.size(), f) : 0;
    if (f) std::fclose(f);
    bytes.resize(n);
    return bytes;
  }();
  const std::string text(log.begin(), log.end());
  EXPECT_NE(text.find("svelat comm [peer exited]"), std::string::npos) << text;
  std::filesystem::remove_all(log_dir);
}

TEST(RankFailure, NonzeroExitIsDecodedDistinctlyFromSignals) {
  const auto report = run_ranks(2, [](int rank, SocketCommunicator&) {
    return rank == 1 ? 3 : 0;
  });
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.ranks[0].ok());
  EXPECT_TRUE(report.ranks[1].exited);
  EXPECT_EQ(report.ranks[1].exit_code, 3);
  EXPECT_NE(report.describe().find("exit 3"), std::string::npos);
}

}  // namespace
}  // namespace svelat::comms
