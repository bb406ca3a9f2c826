#include "comms/socket.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>

#include "support/parallel.h"

namespace svelat::comms {

namespace {

constexpr std::uint32_t kMagic = 0x53564c54;  // "SVLT"

struct FrameHeader {
  std::uint32_t magic;
  std::int32_t from;
  std::int32_t to;
  std::int32_t tag;
  std::uint64_t bytes;
};
static_assert(sizeof(FrameHeader) == 24, "wire frame header is 24 bytes");

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SVELAT_ASSERT_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                    "fcntl(O_NONBLOCK) failed");
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// poll() one fd for the given events; the events it reports (POLLHUP
/// and POLLERR among them), 0 on timeout.
short wait_ready(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    SVELAT_ASSERT_MSG(rc >= 0, "poll failed");
    return rc > 0 ? p.revents : 0;
  }
}

}  // namespace

SocketCommunicator::SocketCommunicator(int nranks, int my_rank,
                                       std::vector<int> peer_fds, int recv_timeout_ms)
    : nranks_(nranks),
      rank_(my_rank),
      recv_timeout_ms_(recv_timeout_ms),
      peer_fds_(std::move(peer_fds)),
      peer_status_(static_cast<std::size_t>(nranks), CommStatus::kOk) {
  SVELAT_ASSERT_MSG(nranks > 0, "need at least one rank");
  check_rank(my_rank);
  SVELAT_ASSERT_MSG(static_cast<int>(peer_fds_.size()) == nranks,
                    "need one descriptor slot per rank");
  for (int r = 0; r < nranks_; ++r) {
    if (r == rank_) continue;
    SVELAT_ASSERT_MSG(peer_fds_[static_cast<std::size_t>(r)] >= 0, "bad peer descriptor");
    set_nonblocking(peer_fds_[static_cast<std::size_t>(r)]);
  }
}

SocketCommunicator::~SocketCommunicator() {
  for (int r = 0; r < nranks_; ++r) {
    const int fd = peer_fds_[static_cast<std::size_t>(r)];
    if (r != rank_ && fd >= 0) ::close(fd);
  }
}

CommStatus SocketCommunicator::try_send(int from, int to, int tag,
                                        const std::vector<std::uint8_t>& payload) {
  SVELAT_ASSERT_MSG(from == rank_, "a socket endpoint sends only from its own rank");
  check_rank(to);
  if (to == rank_) {  // loop back locally, no wire involved
    inbox_[Key{rank_, tag}].push_back(payload);
    bytes_sent_ += payload.size();
    return CommStatus::kOk;
  }
  if (const CommStatus st = peer_state(to); st != CommStatus::kOk) return st;
  FrameHeader h;
  h.magic = kMagic;
  h.from = from;
  h.to = to;
  h.tag = tag;
  h.bytes = payload.size();
  if (const CommStatus st = write_all(to, &h, sizeof h); st != CommStatus::kOk) {
    // A header that timed out before its first byte left nothing on the
    // wire; anything else desynchronized the stream for good.
    if (st != CommStatus::kTimeout) peer_status_[static_cast<std::size_t>(to)] = st;
    return st;
  }
  if (const CommStatus st = write_all(to, payload.data(), payload.size());
      st != CommStatus::kOk) {
    // The header is committed: the channel is torn regardless of class.
    const CommStatus verdict =
        st == CommStatus::kTimeout ? CommStatus::kTornFrame : st;
    peer_status_[static_cast<std::size_t>(to)] = verdict;
    return verdict;
  }
  bytes_sent_ += payload.size();
  return CommStatus::kOk;
}

CommStatus SocketCommunicator::write_all(int to, const void* data, std::size_t n) {
  const int fd = peer_fds_[static_cast<std::size_t>(to)];
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::int64_t deadline = now_ms() + recv_timeout_ms_;
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a fatal SIGPIPE.
    const ssize_t w = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (w > 0) {
      done += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Peer's buffer is full: it is likely mid-send itself.  Drain any
      // inbound frame to keep both sides progressing, then wait briefly
      // for writability.  Skip peers whose stream already ended: their
      // descriptors poll readable (POLLHUP) forever.
      for (int r = 0; r < nranks_; ++r) {
        if (r == rank_ || r == to || peer_state(r) != CommStatus::kOk) continue;
        if (wait_ready(peer_fds_[static_cast<std::size_t>(r)], POLLIN, 0))
          (void)drain_frame(r, recv_timeout_ms_);
      }
      if (peer_state(to) == CommStatus::kOk && wait_ready(fd, POLLIN, 0))
        (void)drain_frame(to, recv_timeout_ms_);
      if (now_ms() >= deadline)
        // The peer stopped draining its socket.  Recoverable only if the
        // frame has not started; try_send maps a mid-frame stall to
        // kTornFrame.
        return done == 0 ? CommStatus::kTimeout : CommStatus::kTornFrame;
      wait_ready(fd, POLLOUT, 10);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET: the peer is gone mid-conversation.
    return (errno == EPIPE || errno == ECONNRESET) ? CommStatus::kPeerExited
                                                   : CommStatus::kIoError;
  }
  return CommStatus::kOk;
}

CommStatus SocketCommunicator::read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd, p + done, n - done, 0);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    // EOF or a reset inside the frame: the peer died mid-write.
    if (r == 0 || (r < 0 && errno == ECONNRESET)) return CommStatus::kTornFrame;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The sender writes header + payload back to back; the remainder of
      // a started frame arrives promptly -- a stall here means the peer
      // died mid-frame.
      if (!wait_ready(fd, POLLIN, recv_timeout_ms_)) return CommStatus::kTornFrame;
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return CommStatus::kIoError;
  }
  return CommStatus::kOk;
}

CommStatus SocketCommunicator::drain_frame(int from, int timeout_ms) {
  if (const CommStatus st = peer_state(from); st != CommStatus::kOk) return st;
  const int fd = peer_fds_[static_cast<std::size_t>(from)];
  if (!wait_ready(fd, POLLIN, timeout_ms)) return CommStatus::kTimeout;
  // Read the header byte by byte so EOF on a frame BOUNDARY (the peer
  // completed all its sends and exited; its descriptor polls readable
  // forever) is distinguishable from EOF inside a frame (a torn write:
  // the peer died).  Only the latter breaks the stream.  A peer that died
  // with frames of ours unread resets the stream instead of closing it:
  // once its buffered frames are consumed, recv fails with ECONNRESET,
  // which classifies like EOF.
  FrameHeader h;
  auto* hp = reinterpret_cast<std::uint8_t*>(&h);
  std::size_t got = 0;
  while (got < sizeof h) {
    const ssize_t r = ::recv(fd, hp + got, sizeof h - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0 || errno == ECONNRESET) {
      const CommStatus st =
          got == 0 ? CommStatus::kPeerExited : CommStatus::kTornFrame;
      peer_status_[static_cast<std::size_t>(from)] = st;
      return st;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      peer_status_[static_cast<std::size_t>(from)] = CommStatus::kIoError;
      return CommStatus::kIoError;
    }
    if (!wait_ready(fd, POLLIN, recv_timeout_ms_)) {
      // A header that stalls part-way means the peer died mid-write.
      const CommStatus st =
          got == 0 ? CommStatus::kTimeout : CommStatus::kTornFrame;
      if (st != CommStatus::kTimeout)
        peer_status_[static_cast<std::size_t>(from)] = st;
      return st;
    }
  }
  if (h.magic != kMagic) {
    peer_status_[static_cast<std::size_t>(from)] = CommStatus::kDesync;
    return CommStatus::kDesync;  // stream desynchronized
  }
  if (h.from != from || h.to != rank_) {
    peer_status_[static_cast<std::size_t>(from)] = CommStatus::kDesync;
    return CommStatus::kDesync;  // misrouted frame
  }
  std::vector<std::uint8_t> payload(h.bytes);
  if (const CommStatus st = read_exact(fd, payload.data(), payload.size());
      st != CommStatus::kOk) {
    peer_status_[static_cast<std::size_t>(from)] = st;
    return st;
  }
  inbox_[Key{h.from, h.tag}].push_back(std::move(payload));
  return CommStatus::kOk;
}

CommStatus SocketCommunicator::try_recv(int to, int from, int tag,
                                        std::vector<std::uint8_t>& out) {
  SVELAT_ASSERT_MSG(to == rank_, "a socket endpoint receives only at its own rank");
  check_rank(from);
  const Key k{from, tag};
  const std::int64_t deadline = now_ms() + recv_timeout_ms_;
  for (;;) {
    auto it = inbox_.find(k);
    if (it != inbox_.end() && !it->second.empty()) {
      out = std::move(it->second.front());
      it->second.pop_front();
      return CommStatus::kOk;
    }
    // Self-sends loop back in try_send(); nothing can arrive later.
    if (from == rank_) return CommStatus::kNoMessage;
    if (const CommStatus st = peer_state(from); st != CommStatus::kOk)
      return st;  // the awaited message can never arrive
    const std::int64_t left = deadline - now_ms();
    if (left <= 0) return CommStatus::kTimeout;
    if (const CommStatus st = drain_frame(from, static_cast<int>(left));
        st != CommStatus::kOk && st != CommStatus::kTimeout)
      return st;
  }
}

bool SocketCommunicator::drain_arrived(int from) {
  const int fd = peer_fds_[static_cast<std::size_t>(from)];
  while (peer_state(from) == CommStatus::kOk) {
    const short events = wait_ready(fd, POLLIN, 0);
    if (events == 0) return false;  // nothing buffered
    FrameHeader h{};
    const ssize_t got = ::recv(fd, &h, sizeof h, MSG_PEEK);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    // drain_frame reads or classifies these without blocking: a whole
    // frame, a bad or misrouted header, an end of stream, a reset, an
    // error, and anything from a peer that hung up (it sends no more
    // bytes, so its partial frame reads as torn).
    bool whole = got <= 0 || (events & (POLLHUP | POLLERR)) != 0;
    if (!whole && static_cast<std::size_t>(got) == sizeof h) {
      int avail = 0;
      whole = h.magic != kMagic || h.from != from || h.to != rank_ ||
              (::ioctl(fd, FIONREAD, &avail) == 0 &&
               static_cast<std::uint64_t>(avail) >= sizeof h + h.bytes);
    }
    if (!whole) return true;
    (void)drain_frame(from, 0);
  }
  return false;
}

std::optional<int> SocketCommunicator::wait_any(int to, std::span<const int> from,
                                                int tag, int timeout_ms) {
  SVELAT_ASSERT_MSG(to == rank_, "a socket endpoint receives only at its own rank");
  SVELAT_ASSERT_MSG(timeout_ms >= 0 || timeout_ms == kTransportTimeout,
                    "wait_any timeout must be >= 0 or kTransportTimeout");
  const std::int64_t deadline =
      now_ms() + (timeout_ms == kTransportTimeout ? recv_timeout_ms_ : timeout_ms);
  // When each sender's partial frame was first seen in this wait: one that
  // stays partial for a whole receive timeout tore, as in read_exact.
  std::vector<std::int64_t> partial_since(from.size(), -1);
  std::vector<struct pollfd> fds;
  for (;;) {
    fds.clear();
    bool in_flight = false;
    for (std::size_t i = 0; i < from.size(); ++i) {
      const int r = from[i];
      check_rank(r);
      if (r != rank_ && drain_arrived(r)) {
        const std::int64_t now = now_ms();
        if (partial_since[i] < 0) partial_since[i] = now;
        if (now - partial_since[i] >= recv_timeout_ms_)
          peer_status_[static_cast<std::size_t>(r)] = CommStatus::kTornFrame;
        in_flight = true;
      } else {
        partial_since[i] = -1;
      }
      const auto it = inbox_.find(Key{r, tag});
      if ((it != inbox_.end() && !it->second.empty()) ||
          (r != rank_ && peer_state(r) != CommStatus::kOk))
        return r;
      if (r != rank_ && partial_since[i] < 0)
        fds.push_back({peer_fds_[static_cast<std::size_t>(r)], POLLIN, 0});
    }
    const std::int64_t left = deadline - now_ms();
    if (left <= 0 || (fds.empty() && !in_flight)) return std::nullopt;
    // A frame in flight keeps its descriptor readable: look at it again
    // after a millisecond instead of spinning on it.
    const std::int64_t wait_ms = in_flight ? std::min<std::int64_t>(left, 1) : left;
    const int rc =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), static_cast<int>(wait_ms));
    SVELAT_ASSERT_MSG(rc >= 0 || errno == EINTR, "poll failed");
  }
}

std::vector<std::vector<int>> make_socket_mesh(int nranks) {
  SVELAT_ASSERT_MSG(nranks > 0, "need at least one rank");
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(nranks),
      std::vector<int>(static_cast<std::size_t>(nranks), -1));
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      int sv[2];
      SVELAT_ASSERT_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                        "socketpair failed");
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }
  return mesh;
}

SocketWorld::SocketWorld(int nranks, int recv_timeout_ms) {
  auto mesh = make_socket_mesh(nranks);
  for (int r = 0; r < nranks; ++r)
    comms_.push_back(std::make_unique<SocketCommunicator>(
        nranks, r, std::move(mesh[static_cast<std::size_t>(r)]), recv_timeout_ms));
}

std::string RankExit::describe() const {
  std::ostringstream os;
  if (exited) {
    if (exit_code == 0)
      os << "exit 0";
    else if (exit_code == kCommFailureExitCode)
      os << "comm failure (exit " << exit_code << ")";
    else if (exit_code == kUncaughtExceptionExitCode)
      os << "uncaught exception (exit " << exit_code << ")";
    else
      os << "exit " << exit_code;
  } else {
    const char* name = ::strsignal(term_signal);
    os << "killed by signal " << term_signal << " (" << (name ? name : "?") << ")";
  }
  if (!ok() && !log_path.empty()) os << "; log " << log_path;
  return os.str();
}

std::string LaunchReport::describe() const {
  std::ostringstream os;
  os << (ok ? "all ranks ok" : "rank failure:");
  for (const RankExit& e : ranks)
    os << " [rank " << e.rank << ": " << e.describe() << "]";
  return os.str();
}

LaunchReport run_ranks(int nranks,
                       const std::function<int(int, SocketCommunicator&)>& body,
                       const LaunchOptions& options) {
  auto mesh = make_socket_mesh(nranks);
  std::vector<pid_t> pids;

  for (int r = 0; r < nranks; ++r) {
    std::fflush(nullptr);  // don't duplicate parent's buffered output into children
    const pid_t pid = ::fork();
    SVELAT_ASSERT_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // Rank process.  The parent's OpenMP worker threads do not exist
      // here; force every parallel construct onto the serial path before
      // any lattice code runs.
      set_force_serial(true);
      if (!options.log_dir.empty()) {
        const std::string path = options.log_dir + "/rank" + std::to_string(r) + ".log";
        if (std::freopen(path.c_str(), "w", stdout) != nullptr)
          ::dup2(::fileno(stdout), ::fileno(stderr));
      }
      for (int i = 0; i < nranks; ++i) {
        if (i == r) continue;
        for (int j = 0; j < nranks; ++j) {
          const int fd = mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (fd >= 0) ::close(fd);
        }
      }
      int code = 1;
      {
        SocketCommunicator comm(nranks, r, std::move(mesh[static_cast<std::size_t>(r)]),
                                options.recv_timeout_ms);
        // A typed communication failure (a peer crashed, a frame tore)
        // becomes a per-rank exit verdict, not a job-wide abort: the
        // launcher's LaunchReport attributes it to this rank.
        try {
          code = body(r, comm);
        } catch (const CommError& e) {
          std::fprintf(stderr, "rank %d: %s\n", r, e.what());
          code = kCommFailureExitCode;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "rank %d: uncaught exception: %s\n", r, e.what());
          code = kUncaughtExceptionExitCode;
        }
      }
      std::fflush(nullptr);
      ::_exit(code & 0xff);  // no atexit / gtest teardown in rank processes
    }
    pids.push_back(pid);
  }

  // The parent holds no endpoint; close everything so rank hangups surface
  // as EPIPE/EOF at the peers instead of idling in kernel buffers.
  for (auto& row : mesh)
    for (int fd : row)
      if (fd >= 0) ::close(fd);

  LaunchReport report;
  report.ok = true;
  for (int r = 0; r < nranks; ++r) {
    int status = 0;
    pid_t w;
    do {
      w = ::waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    } while (w < 0 && errno == EINTR);
    RankExit e;
    e.rank = r;
    if (!options.log_dir.empty())
      e.log_path = options.log_dir + "/rank" + std::to_string(r) + ".log";
    if (w == pids[static_cast<std::size_t>(r)] && WIFEXITED(status)) {
      e.exited = true;
      e.exit_code = WEXITSTATUS(status);
    } else if (w == pids[static_cast<std::size_t>(r)] && WIFSIGNALED(status)) {
      e.term_signal = WTERMSIG(status);
    }
    if (!e.ok()) report.ok = false;
    report.ranks.push_back(e);
  }
  return report;
}

}  // namespace svelat::comms
