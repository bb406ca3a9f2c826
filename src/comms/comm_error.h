// Typed communication errors and the retry policy of the comms layer.
//
// Before the fault-tolerance layer, every transport failure -- a slow
// peer, a torn frame, a crashed rank -- called abort() through
// SVELAT_ASSERT and killed the whole multi-process job.  This header
// replaces that with a small, closed vocabulary of failure classes
// (CommStatus), an exception carrying the class (CommError), and a
// bounded retry-with-backoff policy (RetryPolicy) applied by the
// Communicator base class to the *transient* classes only.
//
// The class -> recovery contract (normative table: docs/FAULTS.md):
//
//   status        transient?  meaning / recovery
//   ------------  ----------  ------------------------------------------
//   kOk           -           success
//   kTimeout      yes         nothing was committed to the stream; the
//                             message may simply be delayed.  Retried
//                             with backoff up to RetryPolicy::max_attempts.
//   kSpuriousEof  yes         an EOF-like glitch that can resolve (seen
//                             under fault injection); retried like kTimeout.
//   kPeerExited   no          the peer closed cleanly; the awaited message
//                             will never arrive.  Fail fast -- this is how
//                             surviving ranks get a failure verdict instead
//                             of hanging until their timeout.
//   kTornFrame    no          the stream ended or stalled INSIDE a frame;
//                             the channel is desynchronized beyond repair.
//   kDesync       no          framing violated (bad magic, misrouted frame).
//   kNoMessage    no          no matching send exists (in-process
//                             transports detect this instantly; it is a
//                             programming error in the exchange schedule).
//   kIoError      no          socket-level failure (errno class).
#pragma once

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

namespace svelat::comms {

enum class CommStatus {
  kOk,
  kTimeout,
  kSpuriousEof,
  kPeerExited,
  kTornFrame,
  kDesync,
  kNoMessage,
  kIoError,
};

constexpr const char* comm_status_name(CommStatus s) {
  switch (s) {
    case CommStatus::kOk: return "ok";
    case CommStatus::kTimeout: return "timeout";
    case CommStatus::kSpuriousEof: return "spurious eof";
    case CommStatus::kPeerExited: return "peer exited";
    case CommStatus::kTornFrame: return "torn frame";
    case CommStatus::kDesync: return "desynchronized";
    case CommStatus::kNoMessage: return "no matching send";
    case CommStatus::kIoError: return "io error";
  }
  return "unknown";
}

/// Transient classes are worth retrying: nothing was committed to the
/// stream, so a later attempt can succeed.  Every other class is final
/// for the channel it occurred on.
constexpr bool comm_status_transient(CommStatus s) {
  return s == CommStatus::kTimeout || s == CommStatus::kSpuriousEof;
}

/// A communication failure that survived the retry policy (or belongs to
/// a non-retryable class).  The what() string is greppable:
/// "svelat comm [<status name>]: <detail>".
class CommError : public std::runtime_error {
 public:
  CommError(CommStatus status, const std::string& detail)
      : std::runtime_error(std::string("svelat comm [") + comm_status_name(status) +
                           "]: " + detail),
        status_(status) {}
  CommStatus status() const { return status_; }

 private:
  CommStatus status_;
};

/// Bounded retry-with-backoff for the transient failure classes.  The
/// first attempt is free; each retry sleeps backoff_ms (doubling per
/// attempt, capped at max_backoff_ms) before re-trying.  Non-transient
/// statuses never retry regardless of this policy.
struct RetryPolicy {
  int max_attempts = 3;      ///< total attempts for transient failures (>= 1)
  int backoff_ms = 5;        ///< sleep before the first retry
  int max_backoff_ms = 200;  ///< backoff growth cap
};

inline void comm_backoff_sleep(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace svelat::comms
