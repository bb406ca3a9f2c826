// Transport conformance suite: every Communicator implementation must
// provide the same messaging semantics (see the contract list in
// comms/communicator.h).  Parameterized over the in-process simulated
// transport, the socket transport and the socket transport seen through
// a FaultyCommunicator with no faults scheduled (the decorator must
// forward every semantic); the socket endpoints are hosted in one process
// here (SocketWorld) so the suite exercises the real wire format and
// framing logic deterministically -- multi-process operation is covered
// by test_rank_equivalence.cpp and the distributed example.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comms/communicator.h"
#include "comms/faults.h"
#include "comms/socket.h"

namespace svelat::comms {
namespace {

/// A world of N ranks: at(r) is the Communicator acting for rank r.  For
/// the simulated transport one object hosts every rank; for the socket
/// transport each rank has its own endpoint.
class World {
 public:
  virtual ~World() = default;
  virtual Communicator& at(int rank) = 0;
};

class SimWorld final : public World {
 public:
  explicit SimWorld(int nranks) : comm_(nranks) {}
  Communicator& at(int) override { return comm_; }

 private:
  SimCommunicator comm_;
};

class SockWorld final : public World {
 public:
  SockWorld(int nranks, int timeout_ms) : world_(nranks, timeout_ms) {}
  Communicator& at(int rank) override { return world_.rank(rank); }

 private:
  SocketWorld world_;
};

/// Socket endpoints, each seen through a fault-free FaultyCommunicator.
class FaultyWorld final : public World {
 public:
  FaultyWorld(int nranks, int timeout_ms) : world_(nranks, timeout_ms) {
    for (int r = 0; r < nranks; ++r)
      comms_.push_back(
          std::make_unique<FaultyCommunicator>(world_.rank(r), FaultSchedule{}));
  }
  Communicator& at(int rank) override { return *comms_[static_cast<std::size_t>(rank)]; }

 private:
  SocketWorld world_;
  std::vector<std::unique_ptr<FaultyCommunicator>> comms_;
};

std::unique_ptr<World> make_world(const std::string& kind, int nranks,
                                  int timeout_ms = 5000) {
  if (kind == "sim") return std::make_unique<SimWorld>(nranks);
  if (kind == "faulty") return std::make_unique<FaultyWorld>(nranks, timeout_ms);
  return std::make_unique<SockWorld>(nranks, timeout_ms);
}

using Payload = std::vector<std::uint8_t>;

/// Communicator::wait_any over a braced list of senders.
std::optional<int> wait_any(Communicator& comm, int to, std::initializer_list<int> from,
                            int tag, int timeout_ms) {
  return comm.wait_any(to, std::span<const int>(from.begin(), from.size()), tag,
                       timeout_ms);
}

/// The zero-timeout readiness check: which sender is ready right now.
std::optional<int> ready_now(Communicator& comm, int to, std::initializer_list<int> from,
                             int tag) {
  return wait_any(comm, to, from, tag, 0);
}

class ConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { world_ = make_world(GetParam(), 4); }
  Communicator& at(int rank) { return world_->at(rank); }

  std::unique_ptr<World> world_;
};

TEST_P(ConformanceTest, SizeReportsWorldRanks) {
  for (int r = 0; r < 4; ++r) EXPECT_EQ(at(r).size(), 4);
}

TEST_P(ConformanceTest, FifoOrderPerChannel) {
  at(0).send(0, 1, 7, Payload{1, 2, 3});
  at(0).send(0, 1, 7, Payload{4, 5});
  at(0).send(0, 1, 7, Payload{6});
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{1, 2, 3}));
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{4, 5}));
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{6}));
}

TEST_P(ConformanceTest, TagsMultiplexIndependently) {
  at(0).send(0, 1, /*tag=*/1, Payload{11});
  at(0).send(0, 1, /*tag=*/2, Payload{22});
  at(0).send(0, 1, /*tag=*/1, Payload{12});
  // Tag 2 first: cross-tag order is free, per-tag order is FIFO.
  EXPECT_EQ(at(1).recv(1, 0, 2), (Payload{22}));
  EXPECT_EQ(at(1).recv(1, 0, 1), (Payload{11}));
  EXPECT_EQ(at(1).recv(1, 0, 1), (Payload{12}));
}

TEST_P(ConformanceTest, SendersDoNotInterfere) {
  at(0).send(0, 2, 9, Payload{0xA0});
  at(1).send(1, 2, 9, Payload{0xB1});
  EXPECT_EQ(at(2).recv(2, 1, 9), (Payload{0xB1}));
  EXPECT_EQ(at(2).recv(2, 0, 9), (Payload{0xA0}));
}

TEST_P(ConformanceTest, SelfSendLoopsBack) {
  at(3).send(3, 3, 5, Payload{42, 43});
  EXPECT_EQ(ready_now(at(3), 3, {3}, 5), 3);
  EXPECT_EQ(at(3).recv(3, 3, 5), (Payload{42, 43}));
  EXPECT_EQ(ready_now(at(3), 3, {3}, 5), std::nullopt);
}

TEST_P(ConformanceTest, ZeroTimeoutWaitTracksArrivalAndDrain) {
  EXPECT_EQ(ready_now(at(1), 1, {0}, 4), std::nullopt);
  at(0).send(0, 1, 4, Payload{7});
  EXPECT_EQ(ready_now(at(1), 1, {0}, 4), 0);
  EXPECT_EQ(ready_now(at(1), 1, {0}, /*other tag=*/8), std::nullopt);
  (void)at(1).recv(1, 0, 4);
  EXPECT_EQ(ready_now(at(1), 1, {0}, 4), std::nullopt);
}

TEST_P(ConformanceTest, WaitAnyReturnsTheReadySenderWhateverItsRank) {
  // Only the last sender in rank order has a message: it is ready, at once
  // even under the transport's full receive timeout.
  at(2).send(2, 3, 4, Payload{2});
  EXPECT_EQ(ready_now(at(3), 3, {0, 1, 2}, 4), 2);
  EXPECT_EQ(wait_any(at(3), 3, {0, 1, 2}, 4, Communicator::kTransportTimeout), 2);
  // With several ready, the first in the set's order wins, and the other
  // stays ready.
  at(0).send(0, 3, 4, Payload{0});
  EXPECT_EQ(ready_now(at(3), 3, {2, 1, 0}, 4), 2);
  EXPECT_EQ(at(3).recv(3, 2, 4), Payload{2});
  EXPECT_EQ(ready_now(at(3), 3, {2, 1, 0}, 4), 0);
  EXPECT_EQ(at(3).recv(3, 0, 4), Payload{0});
  EXPECT_EQ(ready_now(at(3), 3, {0, 1, 2}, 4), std::nullopt);
}

TEST_P(ConformanceTest, MessageOnAnotherTagIsNotReady) {
  at(1).send(1, 0, /*tag=*/8, Payload{1});
  at(2).send(2, 0, /*tag=*/8, Payload{2});
  EXPECT_EQ(ready_now(at(0), 0, {1, 2, 3}, 4), std::nullopt);
  at(3).send(3, 0, 4, Payload{3});
  EXPECT_EQ(ready_now(at(0), 0, {1, 2, 3}, 4), 3);
  // The other tag's messages were not consumed by the wait.
  EXPECT_EQ(at(0).recv(0, 1, 8), Payload{1});
  EXPECT_EQ(at(0).recv(0, 2, 8), Payload{2});
}

TEST_P(ConformanceTest, BytesSentCountsPayloadAtTheSender) {
  at(0).reset_counters();
  at(0).send(0, 1, 3, Payload(5, 0));
  at(0).send(0, 0, 3, Payload(11, 0));  // self-sends are charged too
  EXPECT_EQ(at(0).bytes_sent(), 16u);
  (void)at(1).recv(1, 0, 3);  // receiving changes nothing at the sender
  EXPECT_EQ(at(0).bytes_sent(), 16u);
  at(0).reset_counters();
  EXPECT_EQ(at(0).bytes_sent(), 0u);
}

TEST_P(ConformanceTest, EmptyPayloadSurvivesTheWire) {
  at(0).send(0, 1, 6, Payload{});
  EXPECT_EQ(ready_now(at(1), 1, {0}, 6), 0);
  EXPECT_EQ(at(1).recv(1, 0, 6), Payload{});
}

TEST_P(ConformanceTest, LargePayloadSurvivesTheWire) {
  // 64 KiB spans many stream segments (exercises read_exact reassembly)
  // while still fitting the kernel's default socket buffer -- required
  // in-process, where no peer process drains concurrently.
  Payload big(1 << 16);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  at(2).send(2, 3, 1, big);
  EXPECT_EQ(at(3).recv(3, 2, 1), big);
}

TEST_P(ConformanceTest, RecvWithoutMatchingSendThrowsTyped) {
  // Short timeout: the socket transport must give up waiting on the peer
  // (kTimeout, after its retry policy) where the simulated one detects
  // the missing send instantly (kNoMessage).  Both surface as CommError,
  // not abort.
  auto world = make_world(GetParam(), 2, /*timeout_ms=*/50);
  try {
    (void)world->at(1).recv(1, 0, 99);
    FAIL() << "recv of a never-sent message must throw";
  } catch (const CommError& e) {
    EXPECT_TRUE(e.status() == CommStatus::kTimeout ||
                e.status() == CommStatus::kNoMessage)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("svelat comm ["), std::string::npos);
  }
}

TEST_P(ConformanceTest, SelfRecvWithoutSendFailsInstantly) {
  // Nothing can ever loop back later, so every transport detects this
  // without waiting -- and without burning retries (kNoMessage is not a
  // transient class).
  try {
    (void)at(2).recv(2, 2, 99);
    FAIL() << "self-recv of a never-sent message must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kNoMessage) << e.what();
  }
  EXPECT_EQ(at(2).retries(), 0u);
}

TEST_P(ConformanceTest, StatusLayerReportsFailureWithoutThrowing) {
  Payload out;
  const CommStatus st = at(2).recv_status(2, 2, 99, out);
  EXPECT_EQ(st, CommStatus::kNoMessage);
}

INSTANTIATE_TEST_SUITE_P(Transports, ConformanceTest,
                         ::testing::Values("sim", "socket", "faulty"),
                         [](const auto& info) { return std::string(info.param); });

// Socket-specific: a peer that exits after completing its sends leaves its
// descriptor readable (POLLHUP) forever.  That EOF sits on a frame
// boundary and must not be mistaken for a torn frame -- buffered frames
// stay deliverable, drains stop cleanly, and only a recv that can never be
// satisfied fails, with the typed kPeerExited verdict (regression:
// large-payload runs used to die with "socket closed mid-frame" when the
// progress engine polled an exited peer).
TEST(SocketPeerExit, CleanExitIsNotATornFrame) {
  auto mesh = make_socket_mesh(2);
  auto gone = std::make_unique<SocketCommunicator>(2, 0, std::move(mesh[0]), 500);
  SocketCommunicator survivor(2, 1, std::move(mesh[1]), 500);
  gone->send(0, 1, 1, Payload{1, 2, 3});
  gone->send(0, 1, 2, Payload{4});
  gone.reset();  // rank 0 exits cleanly after finishing its sends

  EXPECT_EQ(ready_now(survivor, 1, {0}, 1), 0);  // drains up to (not past) the EOF
  EXPECT_EQ(survivor.recv(1, 0, 1), (Payload{1, 2, 3}));
  EXPECT_EQ(survivor.recv(1, 0, 2), (Payload{4}));
  // No hang on the readable EOF: the ended stream is what is ready now.
  EXPECT_EQ(ready_now(survivor, 1, {0}, 1), 0);
  try {
    (void)survivor.recv(1, 0, 1);
    FAIL() << "recv from an exited peer must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kPeerExited) << e.what();
  }
  // The verdict is sticky and fast: no timeout wait on later calls either.
  Payload out;
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kPeerExited);
  EXPECT_EQ(survivor.try_send(1, 0, 3, Payload{9}), CommStatus::kPeerExited);
}

// Socket-specific: a peer that dies with frames of ours still unread does
// not close its stream cleanly -- the kernel resets it, and once the frames
// the peer did send are consumed, recv fails with ECONNRESET instead of
// returning EOF.  On a frame boundary that is the same verdict as a clean
// exit: kPeerExited, not an I/O error.
TEST(SocketPeerExit, DeathWithUnreadFramesIsPeerExited) {
  auto mesh = make_socket_mesh(2);
  auto gone = std::make_unique<SocketCommunicator>(2, 1, std::move(mesh[1]), 500);
  SocketCommunicator survivor(2, 0, std::move(mesh[0]), 500);
  gone->send(1, 0, 1, Payload{7});
  survivor.send(0, 1, 2, Payload{1, 2, 3});  // never read by rank 1
  gone.reset();  // rank 1's descriptors close with that frame unread

  EXPECT_EQ(survivor.recv(0, 1, 1), (Payload{7}));  // sent before it died
  Payload out;
  EXPECT_EQ(survivor.recv_status(0, 1, 3, out), CommStatus::kPeerExited);
  EXPECT_EQ(survivor.try_send(0, 1, 4, Payload{9}), CommStatus::kPeerExited);
}

// Socket-specific readiness: what a real wire adds to wait_any's contract
// (a frame can be half-arrived, a peer can hang up, a sender can wake a
// blocked wait).  Each test drives the receiving endpoint directly and
// through a FaultyCommunicator with no faults scheduled.
class SocketReadiness : public ::testing::TestWithParam<bool> {
 protected:
  /// The receiving endpoint `socket` as the test drives it.
  Communicator& receiver(SocketCommunicator& socket) {
    if (!GetParam()) return socket;
    faulty_ = std::make_unique<FaultyCommunicator>(socket, FaultSchedule{});
    return *faulty_;
  }

  std::unique_ptr<FaultyCommunicator> faulty_;
};

/// A frame header from rank 0 to rank 1 on `tag` announcing `bytes`.
std::vector<std::uint8_t> frame_header(int tag, std::uint64_t bytes) {
  const std::uint32_t magic = 0x53564c54;  // "SVLT"
  const std::int32_t from = 0, to = 1;
  const auto tag32 = static_cast<std::int32_t>(tag);
  std::vector<std::uint8_t> h(24);
  std::memcpy(h.data(), &magic, 4);
  std::memcpy(h.data() + 4, &from, 4);
  std::memcpy(h.data() + 8, &to, 4);
  std::memcpy(h.data() + 12, &tag32, 4);
  std::memcpy(h.data() + 16, &bytes, 8);
  return h;
}

void send_raw(int fd, const std::vector<std::uint8_t>& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST_P(SocketReadiness, PayloadInFlightIsNotReady) {
  auto mesh = make_socket_mesh(2);
  SocketCommunicator socket(2, 1, std::move(mesh[1]), 5000);
  Communicator& comm = receiver(socket);
  const int raw = mesh[0][1];  // rank 0's side, driven by hand
  send_raw(raw, frame_header(4, 8));
  send_raw(raw, Payload{1, 2, 3});  // 3 of the 8 payload bytes
  EXPECT_EQ(ready_now(comm, 1, {0}, 4), std::nullopt);
  EXPECT_EQ(wait_any(comm, 1, {0}, 4, 50), std::nullopt);  // nor after waiting
  send_raw(raw, Payload{4, 5, 6, 7, 8});
  EXPECT_EQ(ready_now(comm, 1, {0}, 4), 0);
  EXPECT_EQ(comm.recv(1, 0, 4), (Payload{1, 2, 3, 4, 5, 6, 7, 8}));
  ::close(raw);
}

TEST_P(SocketReadiness, FrameStalledForAReceiveTimeoutIsTorn) {
  // As in recv: a sender that stops mid-frame for a whole receive timeout
  // tore the stream, and the wait reports it rather than waiting forever.
  auto mesh = make_socket_mesh(2);
  SocketCommunicator socket(2, 1, std::move(mesh[1]), 100);
  Communicator& comm = receiver(socket);
  const int raw = mesh[0][1];
  send_raw(raw, frame_header(4, 8));
  EXPECT_EQ(wait_any(comm, 1, {0}, 4, Communicator::kTransportTimeout), 0);
  Payload out;
  EXPECT_EQ(comm.recv_status(1, 0, 4, out), CommStatus::kTornFrame);
  ::close(raw);
}

TEST_P(SocketReadiness, ExitedPeerIsReportedAtOnce) {
  // A 10 s receive timeout: neither the wait nor the recv after it may
  // wait it out once the peer's stream has ended.
  auto mesh = make_socket_mesh(3);
  SocketCommunicator socket(3, 0, std::move(mesh[0]), /*recv_timeout_ms=*/10000);
  SocketCommunicator silent(3, 1, std::move(mesh[1]), 10000);
  auto leaving = std::make_unique<SocketCommunicator>(3, 2, std::move(mesh[2]), 10000);
  Communicator& comm = receiver(socket);
  leaving->send(2, 0, 9, Payload{5});  // another tag: not ready for tag 4
  const auto t0 = std::chrono::steady_clock::now();
  std::thread exit_soon([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    leaving.reset();  // rank 2 exits without sending on tag 4
  });
  EXPECT_EQ(wait_any(comm, 0, {1, 2}, 4, Communicator::kTransportTimeout), 2);
  exit_soon.join();
  Payload out;
  EXPECT_EQ(comm.recv_status(0, 2, 4, out), CommStatus::kPeerExited);
  EXPECT_LT(seconds_since(t0), 2.0);
  EXPECT_EQ(comm.recv(0, 2, 9), Payload{5});  // what it sent is still delivered
}

TEST_P(SocketReadiness, FirstFrameWakesABlockedWait) {
  SocketWorld world(3, /*recv_timeout_ms=*/10000);
  Communicator& comm = receiver(world.rank(0));
  const auto t0 = std::chrono::steady_clock::now();
  std::thread late_sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    world.rank(2).send(2, 0, 4, Payload{2});
  });
  EXPECT_EQ(wait_any(comm, 0, {1, 2}, 4, Communicator::kTransportTimeout), 2);
  late_sender.join();
  EXPECT_LT(seconds_since(t0), 2.0);
  EXPECT_EQ(comm.recv(0, 2, 4), Payload{2});
}

INSTANTIATE_TEST_SUITE_P(Endpoints, SocketReadiness, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "faulty" : "socket");
                         });

}  // namespace
}  // namespace svelat::comms
