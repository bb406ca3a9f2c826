// FaultyCommunicator: deterministic fault injection for any Communicator.
//
// The fault-tolerance layer (typed CommStatus errors, retry-with-backoff,
// rank-failure verdicts, checkpoint auto-recovery) is only trustworthy if
// every failure class can be produced on demand, repeatably.  This
// decorator wraps an inner transport and injects faults from a schedule
// that is a pure function of its construction arguments -- two runs with
// the same schedule see byte-identical fault sequences, so fault tests
// are as deterministic as the rest of the suite.
//
// A FaultEvent names an operation stream (sends or recvs through this
// wrapper), a 0-based operation index in that stream, a fault kind and a
// repeat count.  The operation index counts COMPLETED operations: an
// attempt that is faulted does not advance the counter, so "fault op 3
// twice" means the 4th send is refused twice (each attempt observing the
// fault) and succeeds on the 3rd attempt -- exactly the shape the retry
// policy must absorb.
//
//   kind          injected status        recovery expected
//   -----------   --------------------   --------------------------------
//   kDelay        kTimeout               absorbed by retry-with-backoff
//   kSpuriousEof  kSpuriousEof           absorbed by retry-with-backoff
//   kTornFrame    kTornFrame (forever)   typed CommError at the call site
//   kCrash        SIGKILL self           surviving ranks get kPeerExited;
//                                        the launcher reports a signal
//                                        death and recovers from the last
//                                        checkpoint
//
// FaultSchedule::seeded() derives a reproducible schedule of *transient*
// faults from (seed, rank) via splitmix64 -- the soak knob behind
// ensemble_pipeline --fault-seed.
#pragma once

#include <csignal>
#include <cstdint>
#include <unistd.h>

#include <vector>

#include "comms/communicator.h"
#include "support/random.h"

namespace svelat::comms {

enum class FaultOp { kSend, kRecv };

enum class FaultKind { kDelay, kTornFrame, kSpuriousEof, kCrash };

constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kDelay: return "delay";
    case FaultKind::kTornFrame: return "torn frame";
    case FaultKind::kSpuriousEof: return "spurious eof";
    case FaultKind::kCrash: return "crash";
  }
  return "unknown";
}

struct FaultEvent {
  FaultOp op = FaultOp::kSend;
  /// Fires when `at` operations of this kind have completed (0-based).
  std::uint64_t at = 0;
  FaultKind kind = FaultKind::kDelay;
  /// Consecutive attempts that observe the fault (transient kinds).
  /// kTornFrame ignores this (a torn stream never heals); kCrash needs
  /// only the first firing.
  int count = 1;
};

/// An ordered list of fault events plus the seeded generator.
struct FaultSchedule {
  std::vector<FaultEvent> events;

  /// A reproducible schedule of TRANSIENT faults (delays and spurious
  /// EOFs only -- these are the classes the retry policy must absorb
  /// silently, so a seeded soak run still completes).  Each of the first
  /// `nops` operation indices is faulted with probability ~1/`rate` per
  /// stream, alternating kinds pseudo-randomly.  Pure function of
  /// (seed, rank, nops, rate).
  static FaultSchedule seeded(std::uint64_t seed, int rank, std::uint64_t nops = 64,
                              std::uint64_t rate = 8) {
    FaultSchedule s;
    if (rate == 0) return s;
    for (std::uint64_t i = 0; i < nops; ++i) {
      for (const FaultOp op : {FaultOp::kSend, FaultOp::kRecv}) {
        const std::uint64_t h = splitmix64(
            seed ^ (static_cast<std::uint64_t>(rank) << 48) ^
            (static_cast<std::uint64_t>(op == FaultOp::kRecv) << 40) ^ i);
        if (h % rate != 0) continue;
        FaultEvent e;
        e.op = op;
        e.at = i;
        e.kind = (h >> 32) % 2 == 0 ? FaultKind::kDelay : FaultKind::kSpuriousEof;
        e.count = 1 + static_cast<int>((h >> 16) % 2);  // 1 or 2 attempts
        s.events.push_back(e);
      }
    }
    return s;
  }
};

/// Decorator injecting a FaultSchedule into any Communicator.  Failed
/// attempts are reported through the same CommStatus vocabulary real
/// transports use, so the retry ladder and every call site above it
/// cannot tell injected faults from organic ones.
class FaultyCommunicator final : public Communicator {
 public:
  FaultyCommunicator(Communicator& inner, FaultSchedule schedule)
      : inner_(inner), schedule_(std::move(schedule)) {}

  int size() const override { return inner_.size(); }

  CommStatus try_send(int from, int to, int tag,
                      const std::vector<std::uint8_t>& payload) override {
    if (const CommStatus st = inject(FaultOp::kSend); st != CommStatus::kOk)
      return st;
    const CommStatus st = inner_.try_send(from, to, tag, payload);
    if (st == CommStatus::kOk) ++sends_done_;
    return st;
  }

  CommStatus try_recv(int to, int from, int tag,
                      std::vector<std::uint8_t>& out) override {
    if (const CommStatus st = inject(FaultOp::kRecv); st != CommStatus::kOk)
      return st;
    const CommStatus st = inner_.try_recv(to, from, tag, out);
    if (st == CommStatus::kOk) ++recvs_done_;
    return st;
  }

  std::optional<int> wait_any(int to, std::span<const int> from, int tag,
                              int timeout_ms) override {
    return inner_.wait_any(to, from, tag, timeout_ms);
  }
  std::size_t bytes_sent() const override { return inner_.bytes_sent(); }
  void reset_counters() override { inner_.reset_counters(); }

  /// Faulted attempts observed so far (each refused attempt counts once;
  /// a kCrash never returns to count).
  std::size_t faults_injected() const { return faults_injected_; }

  /// Completed (successful) operations per stream.
  std::uint64_t sends_done() const { return sends_done_; }
  std::uint64_t recvs_done() const { return recvs_done_; }

 private:
  CommStatus inject(FaultOp op) {
    const std::uint64_t done = op == FaultOp::kSend ? sends_done_ : recvs_done_;
    for (FaultEvent& e : schedule_.events) {
      if (e.op != op || e.at != done) continue;
      switch (e.kind) {
        case FaultKind::kDelay:
          if (e.count <= 0) continue;  // spent: the operation proceeds
          --e.count;
          ++faults_injected_;
          return CommStatus::kTimeout;
        case FaultKind::kSpuriousEof:
          if (e.count <= 0) continue;
          --e.count;
          ++faults_injected_;
          return CommStatus::kSpuriousEof;
        case FaultKind::kTornFrame:
          ++faults_injected_;  // never heals: every attempt observes it
          return CommStatus::kTornFrame;
        case FaultKind::kCrash:
          ++faults_injected_;
          // Die the way a real rank crash does: uncatchable, mid-run.
          // Only meaningful inside a forked rank process (run_ranks).
          ::kill(::getpid(), SIGKILL);
          ::_exit(128 + SIGKILL);  // unreachable; placates noreturn analysis
      }
    }
    return CommStatus::kOk;
  }

  Communicator& inner_;
  FaultSchedule schedule_;
  std::uint64_t sends_done_ = 0;
  std::uint64_t recvs_done_ = 0;
  std::size_t faults_injected_ = 0;
};

}  // namespace svelat::comms
