// Distributed gauge I/O tests: per-rank files + manifest and the rank-0
// single-file collectives, over the in-process SimCommunicator and over
// REAL forked rank processes on the socket transport.
#include "io/dist_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "comms/socket.h"
#include "qcd/su3.h"
#include "sve/sve.h"

namespace svelat::io {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;

std::string temp_dir(const std::string& name) {
  return ::testing::TempDir() + "svelat_dist_" + name;
}

class DistributedIoTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 2;

  void SetUp() override {
    sve::set_vector_length(256);
    dims_ = {4, 4, 4, 8};
    layout_ = comms::split_simd_layout(dims_, /*split_dim=*/3, S::Nsimd());
    decomp_ = std::make_unique<comms::RankDecomposition>(dims_, 3, kRanks, layout_);
    global_grid_ = std::make_unique<lattice::GridCartesian>(dims_, layout_);
    global_ = std::make_unique<qcd::GaugeField<S>>(global_grid_.get());
    qcd::random_gauge(SiteRNG(2026), *global_);
    for (int r = 0; r < kRanks; ++r) {
      locals_.push_back(std::make_unique<qcd::GaugeField<S>>(decomp_->grid(r)));
      for (int mu = 0; mu < lattice::Nd; ++mu)
        locals_.back()->U[mu] = comms::scatter_rank(*decomp_, global_->U[mu], r);
    }
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// In-process driver: save every rank's file (senders before rank 0,
  /// which collects the CRCs and writes the manifest).
  void save_all(comms::Communicator& comm, const std::vector<std::uint8_t>& meta = {}) {
    for (int r = kRanks - 1; r >= 0; --r)
      save_gauge_distributed(dir_, *decomp_, comm, r,
                             *locals_[static_cast<std::size_t>(r)], meta);
  }

  lattice::Coordinate dims_;
  lattice::Coordinate layout_;
  std::unique_ptr<comms::RankDecomposition> decomp_;
  std::unique_ptr<lattice::GridCartesian> global_grid_;
  std::unique_ptr<qcd::GaugeField<S>> global_;
  std::vector<std::unique_ptr<qcd::GaugeField<S>>> locals_;
  std::string dir_ = temp_dir("dir");
};

TEST_F(DistributedIoTest, PerRankRoundTripIsBitwise) {
  comms::SimCommunicator comm(kRanks);
  const std::vector<std::uint8_t> meta = {7, 7, 7};
  save_all(comm, meta);
  EXPECT_TRUE(std::filesystem::exists(manifest_file_name(dir_)));
  for (int r = 0; r < kRanks; ++r) {
    qcd::GaugeField<S> loaded(decomp_->grid(r));
    const auto got_meta = load_gauge_distributed(dir_, *decomp_, r, loaded);
    EXPECT_EQ(got_meta, meta);
    EXPECT_EQ(encode_gauge(loaded), encode_gauge(*locals_[static_cast<std::size_t>(r)]))
        << "rank " << r;
  }
}

TEST_F(DistributedIoTest, ManifestPinsTheDecomposition) {
  comms::SimCommunicator comm(kRanks);
  save_all(comm);
  // Same lattice, different rank count: the manifest refuses.
  const comms::RankDecomposition other(dims_, 3, 4, comms::split_simd_layout(dims_, 3,
                                                                             S::Nsimd()));
  qcd::GaugeField<S> local(other.grid(0));
  try {
    load_gauge_distributed(dir_, other, 0, local);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kMismatch);
    EXPECT_NE(std::string(e.what()).find("ranks"), std::string::npos);
  }
}

TEST_F(DistributedIoTest, CorruptManifestIsRejected) {
  comms::SimCommunicator comm(kRanks);
  save_all(comm);
  auto bytes = read_file_bytes(manifest_file_name(dir_));
  bytes[8] ^= 0x01;  // a global-dims byte
  write_file_bytes(manifest_file_name(dir_), bytes);
  qcd::GaugeField<S> local(decomp_->grid(0));
  try {
    load_gauge_distributed(dir_, *decomp_, 0, local);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kBadManifest);
  }
}

TEST(ManifestDecode, RankCountPastTheEndIsRejectedBeforeAllocating) {
  // A manifest whose header CRC is valid but whose nranks claims more
  // 12-byte table entries than the bytes hold is kBadManifest -- for
  // nranks = 0xFFFFFFFF not a 64 GiB table allocation (std::bad_alloc).
  Manifest m;
  m.global_dims = {4, 4, 4, 8};
  m.split_dim = 3;
  m.ranks = {{100, 1}, {200, 2}};
  const std::vector<std::uint8_t> bytes = encode_manifest(m);
  constexpr std::ptrdiff_t kNranksOff = 28;  // magic, version, 4 dims, split_dim
  for (const std::uint32_t nranks : {3u, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> forged(bytes.begin(), bytes.begin() + kNranksOff);
    put_u32(forged, nranks);
    put_u32(forged, crc32(forged.data(), forged.size()));  // a valid header CRC
    forged.insert(forged.end(), bytes.begin() + kNranksOff + 8, bytes.end());
    try {
      decode_manifest(forged);
      ADD_FAILURE() << "nranks " << nranks << " accepted";
    } catch (const IoError& e) {
      EXPECT_EQ(e.code(), IoErrorCode::kBadManifest) << "nranks " << nranks;
    }
  }
}

TEST_F(DistributedIoTest, SwappedRankFilesAreDetected) {
  comms::SimCommunicator comm(kRanks);
  save_all(comm);
  // Swap the two rank files: each still decodes as a valid SVGF file, but
  // the manifest CRCs expose that rank 0 would load rank 1's sub-lattice.
  const std::string f0 = rank_file_name(dir_, 0), f1 = rank_file_name(dir_, 1);
  const auto b0 = read_file_bytes(f0), b1 = read_file_bytes(f1);
  write_file_bytes(f0, b1);
  write_file_bytes(f1, b0);
  qcd::GaugeField<S> local(decomp_->grid(0));
  try {
    load_gauge_distributed(dir_, *decomp_, 0, local);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kRankFileMismatch);
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos);
  }
}

TEST_F(DistributedIoTest, MissingRankFileFailsToOpen) {
  comms::SimCommunicator comm(kRanks);
  save_all(comm);
  std::filesystem::remove(rank_file_name(dir_, 1));
  qcd::GaugeField<S> local(decomp_->grid(1));
  try {
    load_gauge_distributed(dir_, *decomp_, 1, local);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kOpenFailed);
  }
}

TEST_F(DistributedIoTest, RootSingleFileEqualsALocalSave) {
  // Gathering to rank 0 and saving must produce byte-identical output to
  // saving the global field directly: the format is layout-independent.
  comms::SimCommunicator comm(kRanks);
  const std::string path = dir_ + "/root.svgf";
  std::filesystem::create_directories(dir_);
  for (int r = kRanks - 1; r >= 0; --r)
    save_gauge_root(path, *decomp_, comm, r, *locals_[static_cast<std::size_t>(r)]);
  EXPECT_EQ(read_file_bytes(path), encode_gauge(*global_));

  // And the symmetric load scatters the same sub-lattices back.
  std::vector<qcd::GaugeField<S>> loaded;
  for (int r = 0; r < kRanks; ++r) loaded.emplace_back(decomp_->grid(r));
  for (int r = 0; r < kRanks; ++r)
    load_gauge_root(path, *decomp_, comm, r, loaded[static_cast<std::size_t>(r)]);
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(encode_gauge(loaded[static_cast<std::size_t>(r)]),
              encode_gauge(*locals_[static_cast<std::size_t>(r)]));
}

TEST_F(DistributedIoTest, RealRankProcessesRoundTripOverSockets) {
  // The full distributed story with REAL forked processes: every rank
  // writes its file, rank 0 writes the manifest, the barrier publishes
  // it, every rank reloads and checks bitwise against what it wrote.
  const std::string dir = dir_;
  const auto dims = dims_;
  const auto layout = layout_;
  const auto report = comms::run_ranks(kRanks, [&](int rank,
                                                   comms::SocketCommunicator& comm) {
    const comms::RankDecomposition decomp(dims, 3, comm.size(), layout);
    lattice::GridCartesian global_grid(dims, layout);
    qcd::GaugeField<S> global(&global_grid);
    qcd::random_gauge(SiteRNG(2026), global);  // deterministic in every process
    qcd::GaugeField<S> local(decomp.grid(rank));
    for (int mu = 0; mu < lattice::Nd; ++mu)
      local.U[mu] = comms::scatter_rank(decomp, global.U[mu], rank);

    save_gauge_distributed(dir, decomp, comm, rank, local);
    manifest_barrier(comm, rank);

    qcd::GaugeField<S> loaded(decomp.grid(rank));
    load_gauge_distributed(dir, decomp, rank, loaded);
    if (encode_gauge(loaded) != encode_gauge(local)) return 1;

    // Single-file path: rank 0's gathered file == the global field's bytes.
    const std::string root = dir + "/root_socket.svgf";
    save_gauge_root(root, decomp, comm, rank, local);
    if (rank == 0 && read_file_bytes(root) != encode_gauge(global)) return 2;
    return 0;
  });
  EXPECT_TRUE(report.ok) << report.describe();
}

TEST_F(DistributedIoTest, ManifestBarrierTimesOutWithTypedError) {
  // Rank 0 never publishes the ready token (it crashed, or stalled past
  // the transport's bound): the waiting rank must get a typed IoError
  // instead of hanging forever.  Bounded by timeout x retry attempts.
  comms::SocketWorld world(2, /*recv_timeout_ms=*/50);
  try {
    manifest_barrier(world.rank(1), 1);
    FAIL() << "barrier with a silent rank 0 must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kBarrierTimeout);
    EXPECT_NE(std::string(e.what()).find("never arrived"), std::string::npos);
  }
}

TEST_F(DistributedIoTest, ManifestBarrierFailsFastWhenRankZeroExited) {
  // A crashed rank 0 closes its stream: the waiting rank's verdict is
  // kPeerExited, surfaced through the same typed barrier error -- without
  // burning the full timeout.
  auto mesh = comms::make_socket_mesh(2);
  auto rank0 =
      std::make_unique<comms::SocketCommunicator>(2, 0, std::move(mesh[0]), 5000);
  comms::SocketCommunicator rank1(2, 1, std::move(mesh[1]), 5000);
  rank0.reset();  // rank 0 is gone before ever publishing
  try {
    manifest_barrier(rank1, 1);
    FAIL() << "barrier with an exited rank 0 must throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.code(), IoErrorCode::kBarrierTimeout);
    EXPECT_NE(std::string(e.what()).find("peer exited"), std::string::npos);
  }
}

}  // namespace
}  // namespace svelat::io
