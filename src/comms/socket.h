// SocketCommunicator: the real multi-process transport.
//
// Each rank is a separate OS process; every unordered rank pair shares one
// full-duplex Unix-domain stream socket (a socketpair(2) created by the
// launcher before fork(), so no listen/connect handshake and no filesystem
// paths).  Messages carry the same (from, to, tag, payload) tuples the
// simulated transport routes, wrapped in a fixed 24-byte frame header:
//
//   offset  size  field
//        0     4  magic   0x53564c54 ("SVLT", little-endian on the wire)
//        4     4  from    sending rank   (int32)
//        8     4  to      receiving rank (int32)
//       12     4  tag     user tag       (int32)
//       16     8  bytes   payload length (uint64)
//       24     -  payload (raw bytes, `bytes` of them)
//
// Ranks run on one host and share endianness, so fields are memcpy'd in
// native layout.  Flow control: all descriptors are non-blocking and both
// send() and recv() run a small progress engine -- while waiting to write
// (peer's socket buffer full) or to read (frame not yet arrived), any
// complete frame available from any peer is drained into the local inbox.
// Ring exchanges where every rank sends before receiving therefore cannot
// deadlock regardless of message size.
//
// wait_any is one poll(2) over the awaited peers' descriptors.  It drains
// only frames that have completely arrived (it peeks at the header and
// the buffered byte count first), so it never blocks on a frame whose
// payload is still in flight; a frame that stays partial for a whole
// receive timeout is kTornFrame, as in recv.
//
// Failure handling is typed (comms/comm_error.h, contract in
// docs/FAULTS.md), not abort-on-timeout: a try_recv whose frame has not
// arrived within `recv_timeout_ms` reports CommStatus::kTimeout (the base
// class retries transient statuses per its RetryPolicy before the
// call-site recv() throws CommError); EOF on a frame boundary reports
// kPeerExited so a rank waiting on a crashed peer gets a failure verdict
// quickly instead of burning its full timeout; EOF or a stall INSIDE a
// frame reports kTornFrame; a bad magic or misrouted frame reports
// kDesync.  Fatal statuses are sticky per peer -- the stream is
// desynchronized beyond repair once a frame tears.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comms/communicator.h"

namespace svelat::comms {

/// One rank's endpoint of the mesh.  Lives in the rank's own process (via
/// run_ranks) or, for tests, several endpoints can live in one process
/// (SocketWorld) since the kernel buffers frames between them.
class SocketCommunicator final : public Communicator {
 public:
  static constexpr int kDefaultRecvTimeoutMs = 30000;

  /// `peer_fds[r]` is the stream socket connected to rank r
  /// (`peer_fds[my_rank]` is ignored; self-sends loop back locally).
  /// Takes ownership of the descriptors.
  SocketCommunicator(int nranks, int my_rank, std::vector<int> peer_fds,
                     int recv_timeout_ms = kDefaultRecvTimeoutMs);
  ~SocketCommunicator() override;

  SocketCommunicator(const SocketCommunicator&) = delete;
  SocketCommunicator& operator=(const SocketCommunicator&) = delete;

  /// The rank this endpoint acts for.
  int rank() const { return rank_; }

  int size() const override { return nranks_; }
  CommStatus try_send(int from, int to, int tag,
                      const std::vector<std::uint8_t>& payload) override;
  CommStatus try_recv(int to, int from, int tag,
                      std::vector<std::uint8_t>& out) override;
  std::optional<int> wait_any(int to, std::span<const int> from, int tag,
                              int timeout_ms) override;
  std::size_t bytes_sent() const override { return bytes_sent_; }
  void reset_counters() override { bytes_sent_ = 0; }

 private:
  using Key = std::pair<int, int>;  // (from, tag)

  void check_rank(int r) const {
    SVELAT_ASSERT_MSG(r >= 0 && r < nranks_, "bad rank");
  }
  /// Blocking write of the full buffer to `to`, draining inbound frames
  /// while the outbound buffer is full.  kTimeout only before the first
  /// byte is committed; a stall mid-frame is kTornFrame (the stream
  /// cannot be resynchronized).
  CommStatus write_all(int to, const void* data, std::size_t n);
  /// Read one complete frame from `from` into the inbox.  kOk: a frame
  /// was drained.  kTimeout: none arrived in time.  kPeerExited: EOF or
  /// ECONNRESET on a frame boundary (the peer exited, having completed
  /// its sends -- recorded in peer_status_).  kTornFrame / kDesync: the stream is broken
  /// (sticky in peer_status_).
  CommStatus drain_frame(int from, int timeout_ms);
  /// Read exactly n bytes from fd (payload follows its header promptly).
  CommStatus read_exact(int fd, void* data, std::size_t n);
  /// Drain, without blocking, every frame from `from` that has completely
  /// arrived, and settle the stream's verdict where it has ended (a peer
  /// that hung up mid-frame tore it).  True when the start of a frame is
  /// buffered whose rest is still in flight.
  bool drain_arrived(int from);

  /// kOk while the peer's stream is usable; otherwise the sticky verdict.
  CommStatus peer_state(int r) const {
    return peer_status_[static_cast<std::size_t>(r)];
  }

  int nranks_;
  int rank_;
  int recv_timeout_ms_;
  std::vector<int> peer_fds_;
  /// Per-peer stream verdict: kOk, kPeerExited (clean EOF) or a sticky
  /// fatal status (kTornFrame / kDesync / kIoError).
  std::vector<CommStatus> peer_status_;
  std::map<Key, std::deque<std::vector<std::uint8_t>>> inbox_;
  std::size_t bytes_sent_ = 0;
};

/// Full mesh of socketpairs: mesh[i][j] is the descriptor rank i uses to
/// talk to rank j (mesh[i][i] == -1).  Used by run_ranks before forking and
/// by SocketWorld for in-process testing.
std::vector<std::vector<int>> make_socket_mesh(int nranks);

/// All N endpoints of a socket mesh hosted in ONE process.  The kernel
/// buffers frames between them, so the conformance tests can exercise the
/// real wire format and framing logic without forking.  Multi-process
/// operation goes through run_ranks instead.
class SocketWorld {
 public:
  explicit SocketWorld(int nranks,
                       int recv_timeout_ms = SocketCommunicator::kDefaultRecvTimeoutMs);
  SocketCommunicator& rank(int r) { return *comms_[static_cast<std::size_t>(r)]; }
  int size() const { return static_cast<int>(comms_.size()); }

 private:
  std::vector<std::unique_ptr<SocketCommunicator>> comms_;
};

struct LaunchOptions {
  int recv_timeout_ms = SocketCommunicator::kDefaultRecvTimeoutMs;
  /// When non-empty, each rank's stdout/stderr are redirected to
  /// `<log_dir>/rank<r>.log` (the CI lanes upload these on failure).
  /// The directory must already exist.
  std::string log_dir;
};

/// Exit code a rank process reports when its body threw a CommError the
/// launcher should attribute to a communication failure (a peer crashed
/// or desynchronized), and the code for any other uncaught exception.
inline constexpr int kCommFailureExitCode = 84;
inline constexpr int kUncaughtExceptionExitCode = 85;

struct RankExit {
  int rank = -1;
  bool exited = false;    ///< false: killed by a signal (e.g. SIGKILL)
  int exit_code = -1;     ///< valid when exited
  int term_signal = 0;    ///< valid when !exited
  std::string log_path;   ///< the rank's log file (empty without log_dir)

  bool ok() const { return exited && exit_code == 0; }
  /// One human-readable verdict, e.g. "exit 3", "comm failure (exit 84)"
  /// or "killed by signal 9 (Killed)".
  std::string describe() const;
};

struct LaunchReport {
  bool ok = false;  ///< every rank exited with code 0
  std::vector<RankExit> ranks;
  /// Clean exits, nonzero exits and signal deaths are decoded per rank;
  /// failure lines include the rank's log path when logs were redirected.
  std::string describe() const;
};

/// Fork `nranks` rank processes wired as a full socket mesh and run
/// `body(rank, comm)` in each; a rank's return value becomes its exit code.
/// A CommError escaping the body exits the rank with kCommFailureExitCode
/// (any other exception: kUncaughtExceptionExitCode) after printing the
/// diagnostic, so one crashed rank yields a per-rank verdict in the
/// LaunchReport instead of a job-wide abort.  The parent owns no endpoint:
/// it closes every descriptor, waits for all children and reports per-rank
/// exits.  Children run single-threaded (set_force_serial) because the
/// parent's OpenMP team does not survive fork(); the deterministic
/// reductions keep results bitwise identical.
LaunchReport run_ranks(int nranks,
                       const std::function<int(int, SocketCommunicator&)>& body,
                       const LaunchOptions& options = {});

}  // namespace svelat::comms
