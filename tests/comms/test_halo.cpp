// Halo pack/exchange/unpack with compression (paper Sec. V-B: fp16 is used
// for compressing network-exchange data).
#include "comms/halo.h"

#include <gtest/gtest.h>

#include "lattice/lattice_all.h"
#include "qcd/types.h"
#include "sve/sve.h"

namespace svelat::comms {
namespace {

using S = simd::SimdComplex<double, simd::kVLB512, simd::SveFcmla>;
using Fermion = qcd::LatticeFermion<S>;

class HaloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sve::set_vector_length(512);
    grid_ = std::make_unique<lattice::GridCartesian>(
        lattice::Coordinate{4, 4, 4, 4},
        lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    field_ = std::make_unique<Fermion>(grid_.get());
    gaussian_fill(SiteRNG(55), *field_);
  }

  std::unique_ptr<lattice::GridCartesian> grid_;
  std::unique_ptr<Fermion> field_;
};

TEST_F(HaloTest, FaceGeometryHelpers) {
  const lattice::Coordinate dims{4, 6, 8, 10};
  EXPECT_EQ(face_extent(dims, 0, 0), 6);
  EXPECT_EQ(face_extent(dims, 0, 2), 10);
  EXPECT_EQ(face_extent(dims, 3, 2), 8);
  lattice::Coordinate x;
  face_coor(1, 5, 2, 3, 4, x);
  EXPECT_EQ(x, (lattice::Coordinate{2, 5, 3, 4}));
}

TEST_F(HaloTest, PackFaceHasExpectedSizeAndContent) {
  const auto buf = pack_face(*field_, 2, 1);
  // 4^3 face sites x 12 complex components x 2 reals.
  EXPECT_EQ(buf.size(), 64u * qcd::Ns * qcd::Nc * 2);
  // Spot-check the first site (a=b=c=0 -> x = {0,0,1,0}).
  const auto s = field_->peek({0, 0, 1, 0});
  EXPECT_EQ(buf[0], s(0)(0).real());
  EXPECT_EQ(buf[1], s(0)(0).imag());
}

TEST_F(HaloTest, PackUnpackRoundtrip) {
  const auto buf = pack_face(*field_, 0, 3);
  const auto sites = unpack_face(buf, *field_);
  EXPECT_EQ(sites.size(), 64u);
  std::size_t idx = 0;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      for (int c = 0; c < 4; ++c) {
        const auto expect = field_->peek({3, a, b, c});
        for (int sp = 0; sp < qcd::Ns; ++sp)
          for (int cc = 0; cc < qcd::Nc; ++cc)
            EXPECT_EQ(sites[idx](sp)(cc), expect(sp)(cc));
        ++idx;
      }
}

TEST_F(HaloTest, CommunicatorFifoSemantics) {
  SimCommunicator comm(2);
  comm.send(0, 1, 7, {1, 2, 3});
  comm.send(0, 1, 7, {4, 5});
  const int sender = 0;
  EXPECT_EQ(comm.wait_any(1, std::span<const int>(&sender, 1), 7, 0), 0);
  EXPECT_EQ(comm.recv(1, 0, 7), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(comm.recv(1, 0, 7), (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(comm.wait_any(1, std::span<const int>(&sender, 1), 7, 0), std::nullopt);
  EXPECT_EQ(comm.bytes_sent(), 5u);
}

TEST_F(HaloTest, RecvWithoutSendThrowsTyped) {
  SimCommunicator comm(2);
  try {
    (void)comm.recv(1, 0, 0);
    FAIL() << "recv of a never-sent message must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kNoMessage) << e.what();
  }
}

TEST_F(HaloTest, ExchangeUncompressedIsLossless) {
  SimCommunicator comm(2);
  std::size_t wire = 0;
  const auto packed = pack_face(*field_, 3, 0);
  const auto received =
      exchange_face(comm, *field_, 3, 0, Compression::kNone, 0, 1, &wire);
  EXPECT_EQ(wire, packed.size() * sizeof(double));
  ASSERT_EQ(received.size(), packed.size());
  for (std::size_t i = 0; i < packed.size(); ++i) EXPECT_EQ(received[i], packed[i]) << i;
}

TEST_F(HaloTest, ExchangeF32HalvesBandwidth) {
  SimCommunicator comm(2);
  std::size_t wire = 0;
  const auto packed = pack_face(*field_, 1, 2);
  const auto received =
      exchange_face(comm, *field_, 1, 2, Compression::kF32, 0, 1, &wire);
  EXPECT_EQ(wire, packed.size() * sizeof(float));
  for (std::size_t i = 0; i < packed.size(); ++i)
    EXPECT_EQ(received[i], static_cast<double>(static_cast<float>(packed[i]))) << i;
}

TEST_F(HaloTest, ExchangeF16QuartersBandwidth) {
  SimCommunicator comm(2);
  std::size_t wire = 0;
  const auto packed = pack_face(*field_, 2, 3);
  const auto received =
      exchange_face(comm, *field_, 2, 3, Compression::kF16, 0, 1, &wire);
  EXPECT_EQ(wire, packed.size() * sizeof(half));
  EXPECT_EQ(wire * 4, packed.size() * sizeof(double));
  double max_rel = 0;
  for (std::size_t i = 0; i < packed.size(); ++i) {
    if (packed[i] != 0.0)
      max_rel =
          std::max(max_rel, std::abs(received[i] - packed[i]) / std::abs(packed[i]));
  }
  // Gaussian data ~N(0,1): all values well inside f16 range, so the
  // relative error is bounded by the f16 epsilon.
  EXPECT_LT(max_rel, 0x1.0p-10);
  EXPECT_GT(max_rel, 0.0);  // compression is genuinely lossy
}

TEST_F(HaloTest, ExchangeMatchesCshiftWrap) {
  // The received face equals what Cshift pulls across the periodic
  // boundary: exchanging face x_mu=0 provides the +mu neighbour data for
  // sites at x_mu = L-1.
  SimCommunicator comm(1);
  const int mu = 3;
  const auto received =
      exchange_face(comm, *field_, mu, 0, Compression::kNone, 0, 0);
  const auto sites = unpack_face(received, *field_);
  const Fermion shifted = lattice::Cshift(*field_, mu, +1);
  std::size_t idx = 0;
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 4; ++b)
      for (int c = 0; c < 4; ++c) {
        // Site {a,b,c, L-1} sees f(x+mu) = f({a,b,c,0}) = face site idx.
        const auto expect = shifted.peek({a, b, c, 3});
        for (int sp = 0; sp < qcd::Ns; ++sp)
          for (int cc = 0; cc < qcd::Nc; ++cc)
            EXPECT_EQ(sites[idx](sp)(cc), expect(sp)(cc));
        ++idx;
      }
}

}  // namespace
}  // namespace svelat::comms
