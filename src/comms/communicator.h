// Communicator: the transport interface of the comms layer.
//
// The paper's Grid runs distribute sub-lattices over MPI ranks (Sec. II-A).
// This reproduction keeps the pack -> (compress) -> send -> recv ->
// (decompress) -> unpack path transport-agnostic behind one small
// interface; three implementations exist:
//
//   SimCommunicator     (below)          -- hosts all R logical ranks in one
//                                           process, routing messages through
//                                           in-memory mailboxes.  Deterministic
//                                           and dependency-free; the unit-test
//                                           workhorse.
//   SocketCommunicator  (comms/socket.h) -- one OS process per rank, wired as
//                                           a full mesh of Unix-domain
//                                           sockets with a thin framing
//                                           protocol.  The real multi-process
//                                           transport (no MPI dependency).
//   FaultyCommunicator  (comms/faults.h) -- decorator injecting a seeded,
//                                           deterministic fault schedule
//                                           (delays, torn frames, spurious
//                                           EOFs, rank crashes) into any of
//                                           the above; the test substrate of
//                                           the fault-tolerance layer.
//
// The interface is a three-level ladder (failure contract: docs/FAULTS.md):
//
//   try_send / try_recv    one attempt, returns CommStatus, never throws.
//                          What implementations override.
//   send_status /          bounded retry-with-backoff over the transient
//   recv_status            statuses (RetryPolicy), returns the final
//                          CommStatus, never throws.
//   send / recv            the call-site API: retried as above, then throws
//                          CommError on failure.
//
// Semantics every implementation must provide (enforced by the conformance
// suite in tests/comms/test_communicator_conformance.cpp):
//   - messages on the same (from, to, tag) channel arrive in FIFO order;
//   - distinct tags multiplex independently over the same rank pair;
//   - self-sends (from == to) are legal and loop back locally;
//   - bytes_sent() counts payload bytes of every successful send issued
//     through this object (wire framing overhead is not charged);
//   - recv() of a message that was never sent fails with a typed
//     CommStatus -- kNoMessage where that is detectable instantly,
//     kTimeout where the transport must wait on a peer;
//   - wait_any() over a set of senders returns the first one whose
//     message on the tag has completely arrived, or whose stream has
//     ended (a recv from it then returns the verdict at once) -- a
//     message still in flight or on another tag does not count -- and
//     no sender when none is ready within the timeout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "comms/comm_error.h"
#include "support/assert.h"

namespace svelat::comms {

class Communicator {
 public:
  virtual ~Communicator() = default;

  /// Number of ranks in the world.
  virtual int size() const = 0;

  /// One attempt to post a message from `from` to `to` with a user tag.
  /// Returns kOk (payload committed) or a typed failure; never throws.
  virtual CommStatus try_send(int from, int to, int tag,
                              const std::vector<std::uint8_t>& payload) = 0;

  /// One attempt to receive the oldest message matching (from, tag)
  /// addressed to `to` into `out`.  A transport that must wait on a peer
  /// bounds the attempt by its own timeout and reports kTimeout; an
  /// in-process transport reports kNoMessage instantly.  Never throws.
  virtual CommStatus try_recv(int to, int from, int tag,
                              std::vector<std::uint8_t>& out) = 0;

  /// wait_any's timeout for "as long as one try_recv would wait".
  static constexpr int kTransportTimeout = -1;

  /// Readiness wait at rank `to`: the first rank in `from` whose message
  /// on `tag` has completely arrived, or whose stream has ended (its
  /// try_recv then returns the verdict without waiting); std::nullopt when
  /// none is ready within `timeout_ms` (0: look without waiting;
  /// kTransportTimeout: the transport's own receive timeout).  When
  /// several are ready, the first in `from`'s order wins.  An in-process
  /// transport, where nothing arrives while the caller waits, answers at
  /// once.  Never throws.
  virtual std::optional<int> wait_any(int to, std::span<const int> from, int tag,
                                      int timeout_ms) = 0;

  /// Total payload bytes successfully sent through this object since
  /// construction / reset_counters().
  virtual std::size_t bytes_sent() const = 0;
  virtual void reset_counters() = 0;

  // --- retrying, status-returning layer --------------------------------------

  /// try_send with the retry policy applied to transient statuses.
  CommStatus send_status(int from, int to, int tag,
                         const std::vector<std::uint8_t>& payload) {
    return with_retries([&] { return try_send(from, to, tag, payload); });
  }

  /// try_recv with the retry policy applied to transient statuses.
  CommStatus recv_status(int to, int from, int tag, std::vector<std::uint8_t>& out) {
    return with_retries([&] { return try_recv(to, from, tag, out); });
  }

  // --- throwing call-site layer ----------------------------------------------

  /// Post a message; retries transient failures, then throws CommError
  /// on failure.
  void send(int from, int to, int tag, std::vector<std::uint8_t> payload) {
    const CommStatus st = send_status(from, to, tag, payload);
    if (st != CommStatus::kOk)
      throw CommError(st, "send " + channel_string(from, to, tag) + " failed");
  }

  /// Receive a message; retries transient failures, then throws CommError
  /// on failure.
  std::vector<std::uint8_t> recv(int to, int from, int tag) {
    std::vector<std::uint8_t> out;
    const CommStatus st = recv_status(to, from, tag, out);
    if (st != CommStatus::kOk)
      throw CommError(st, "recv " + channel_string(from, to, tag) + " failed");
    return out;
  }

  // --- retry policy ----------------------------------------------------------

  const RetryPolicy& retry_policy() const { return policy_; }
  void set_retry_policy(const RetryPolicy& p) { policy_ = p; }

  /// Transient retries performed by send_status/recv_status so far.
  std::size_t retries() const { return retries_; }

 protected:
  template <class Attempt>
  CommStatus with_retries(const Attempt& attempt) {
    int backoff = policy_.backoff_ms;
    CommStatus st = CommStatus::kOk;
    const int attempts = policy_.max_attempts < 1 ? 1 : policy_.max_attempts;
    for (int a = 0; a < attempts; ++a) {
      if (a > 0) {
        ++retries_;
        comm_backoff_sleep(backoff);
        backoff = backoff * 2 > policy_.max_backoff_ms ? policy_.max_backoff_ms
                                                       : backoff * 2;
      }
      st = attempt();
      if (!comm_status_transient(st)) return st;  // kOk or final failure
    }
    return st;  // transient class exhausted its attempts
  }

  static std::string channel_string(int from, int to, int tag) {
    return "(from " + std::to_string(from) + " to " + std::to_string(to) + " tag " +
           std::to_string(tag) + ")";
  }

 private:
  RetryPolicy policy_;
  std::size_t retries_ = 0;
};

/// In-process transport: R logical ranks share one object, messages live in
/// per-(from, to, tag) mailboxes.  Single-threaded deterministic schedule --
/// a recv must follow its send, so recv of a missing message reports
/// kNoMessage immediately instead of blocking.
class SimCommunicator final : public Communicator {
 public:
  explicit SimCommunicator(int nranks) : nranks_(nranks) {
    SVELAT_ASSERT_MSG(nranks > 0, "need at least one rank");
  }

  int size() const override { return nranks_; }

  CommStatus try_send(int from, int to, int tag,
                      const std::vector<std::uint8_t>& payload) override {
    check_rank(from);
    check_rank(to);
    mailboxes_[key(from, to, tag)].push_back(payload);
    bytes_sent_ += payload.size();
    return CommStatus::kOk;
  }

  CommStatus try_recv(int to, int from, int tag,
                      std::vector<std::uint8_t>& out) override {
    check_rank(from);
    check_rank(to);
    auto it = mailboxes_.find(key(from, to, tag));
    if (it == mailboxes_.end() || it->second.empty()) return CommStatus::kNoMessage;
    out = std::move(it->second.front());
    it->second.pop_front();
    return CommStatus::kOk;
  }

  std::optional<int> wait_any(int to, std::span<const int> from, int tag,
                              int /*timeout_ms*/) override {
    check_rank(to);
    for (const int r : from) {
      check_rank(r);
      auto it = mailboxes_.find(key(r, to, tag));
      if (it != mailboxes_.end() && !it->second.empty()) return r;
    }
    return std::nullopt;
  }

  std::size_t bytes_sent() const override { return bytes_sent_; }
  void reset_counters() override { bytes_sent_ = 0; }

 private:
  using Key = std::tuple<int, int, int>;
  static Key key(int from, int to, int tag) { return {from, to, tag}; }
  void check_rank(int r) const {
    SVELAT_ASSERT_MSG(r >= 0 && r < nranks_, "bad rank");
  }

  int nranks_;
  std::map<Key, std::deque<std::vector<std::uint8_t>>> mailboxes_;
  std::size_t bytes_sent_ = 0;
};

}  // namespace svelat::comms
