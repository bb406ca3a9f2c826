// Transport conformance suite: every Communicator implementation must
// provide the same messaging semantics (see the contract list in
// comms/communicator.h).  Parameterized over the in-process simulated
// transport and the socket transport; the socket endpoints are hosted in
// one process here (SocketWorld) so the suite exercises the real wire
// format and framing logic deterministically -- multi-process operation is
// covered by test_rank_equivalence.cpp and the distributed example.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "comms/communicator.h"
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

std::unique_ptr<World> make_world(const std::string& kind, int nranks,
                                  int timeout_ms = 5000) {
  if (kind == "sim") return std::make_unique<SimWorld>(nranks);
  return std::make_unique<SockWorld>(nranks, timeout_ms);
}

using Payload = std::vector<std::uint8_t>;

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
  EXPECT_TRUE(at(3).has_pending(3, 3, 5));
  EXPECT_EQ(at(3).recv(3, 3, 5), (Payload{42, 43}));
  EXPECT_FALSE(at(3).has_pending(3, 3, 5));
}

TEST_P(ConformanceTest, HasPendingTracksArrivalAndDrain) {
  EXPECT_FALSE(at(1).has_pending(1, 0, 4));
  at(0).send(0, 1, 4, Payload{7});
  EXPECT_TRUE(at(1).has_pending(1, 0, 4));
  EXPECT_FALSE(at(1).has_pending(1, 0, /*other tag=*/8));
  (void)at(1).recv(1, 0, 4);
  EXPECT_FALSE(at(1).has_pending(1, 0, 4));
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
  EXPECT_TRUE(at(1).has_pending(1, 0, 6));
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

TEST_P(ConformanceTest, AbortOnFailureIsTheConfiguredLastResort) {
  // The one remaining abort path: opt-in via the retry policy.
  auto world = make_world(GetParam(), 2, /*timeout_ms=*/50);
  RetryPolicy policy;
  policy.abort_on_failure = true;
  policy.max_attempts = 1;
  world->at(1).set_retry_policy(policy);
  EXPECT_DEATH((void)world->at(1).recv(1, 0, 99), "abort_on_failure");
}

INSTANTIATE_TEST_SUITE_P(Transports, ConformanceTest,
                         ::testing::Values("sim", "socket"),
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

  EXPECT_TRUE(survivor.has_pending(1, 0, 1));  // drains up to (not past) the EOF
  EXPECT_EQ(survivor.recv(1, 0, 1), (Payload{1, 2, 3}));
  EXPECT_EQ(survivor.recv(1, 0, 2), (Payload{4}));
  EXPECT_FALSE(survivor.has_pending(1, 0, 1));  // no hang on the readable EOF
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

}  // namespace
}  // namespace svelat::comms
