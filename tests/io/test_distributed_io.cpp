// Gauge I/O over a rank decomposition: the rank-0 single-file collectives,
// over the in-process SimCommunicator and over REAL forked rank processes
// on the socket transport.
#include "io/dist_io.h"

#include <gtest/gtest.h>

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
    std::filesystem::create_directories(dir_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  lattice::Coordinate dims_;
  lattice::Coordinate layout_;
  std::unique_ptr<comms::RankDecomposition> decomp_;
  std::unique_ptr<lattice::GridCartesian> global_grid_;
  std::unique_ptr<qcd::GaugeField<S>> global_;
  std::vector<std::unique_ptr<qcd::GaugeField<S>>> locals_;
  std::string dir_ = temp_dir("dir");
  const std::vector<std::uint8_t> meta_ = {7, 7, 7};
};

TEST_F(DistributedIoTest, RootSingleFileEqualsALocalSave) {
  // Gathering to rank 0 and saving must produce byte-identical output to
  // saving the global field directly: the format is layout-independent,
  // so load_gauge reads the file at one rank.
  comms::SimCommunicator comm(kRanks);
  const std::string path = dir_ + "/root.svgf";
  for (int r = kRanks - 1; r >= 0; --r)
    save_gauge_root(path, *decomp_, comm, r, *locals_[static_cast<std::size_t>(r)],
                    meta_);
  EXPECT_EQ(read_file_bytes(path), encode_gauge(*global_, meta_));
  qcd::GaugeField<S> single(global_grid_.get());
  EXPECT_EQ(load_gauge(path, single), meta_);
  EXPECT_EQ(encode_gauge(single), encode_gauge(*global_));

  // And the symmetric load scatters the same sub-lattices back; the
  // metadata blob comes back on rank 0 only.
  std::vector<qcd::GaugeField<S>> loaded;
  for (int r = 0; r < kRanks; ++r) loaded.emplace_back(decomp_->grid(r));
  for (int r = 0; r < kRanks; ++r) {
    const auto got_meta =
        load_gauge_root(path, *decomp_, comm, r, loaded[static_cast<std::size_t>(r)]);
    EXPECT_EQ(got_meta, r == 0 ? meta_ : std::vector<std::uint8_t>{}) << "rank " << r;
  }
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(encode_gauge(loaded[static_cast<std::size_t>(r)]),
              encode_gauge(*locals_[static_cast<std::size_t>(r)]))
        << "rank " << r;
}

TEST_F(DistributedIoTest, RealRankProcessesRoundTripOverSockets) {
  // The same round trip with REAL forked processes: every rank gathers
  // its slab to rank 0, which writes the one file; then rank 0 reads it
  // and scatters, and every rank checks its slab bitwise against what it
  // sent.
  const std::string path = dir_ + "/root_socket.svgf";
  const auto dims = dims_;
  const auto layout = layout_;
  const auto meta = meta_;
  const auto report = comms::run_ranks(kRanks, [&](int rank,
                                                   comms::SocketCommunicator& comm) {
    const comms::RankDecomposition decomp(dims, 3, comm.size(), layout);
    lattice::GridCartesian global_grid(dims, layout);
    qcd::GaugeField<S> global(&global_grid);
    qcd::random_gauge(SiteRNG(2026), global);  // deterministic in every process
    qcd::GaugeField<S> local(decomp.grid(rank));
    for (int mu = 0; mu < lattice::Nd; ++mu)
      local.U[mu] = comms::scatter_rank(decomp, global.U[mu], rank);

    save_gauge_root(path, decomp, comm, rank, local, meta);
    if (rank == 0 && read_file_bytes(path) != encode_gauge(global, meta)) return 1;

    qcd::GaugeField<S> loaded(decomp.grid(rank));
    const auto got_meta = load_gauge_root(path, decomp, comm, rank, loaded);
    if (got_meta != (rank == 0 ? meta : std::vector<std::uint8_t>{})) return 2;
    if (encode_gauge(loaded) != encode_gauge(local)) return 3;
    return 0;
  });
  EXPECT_TRUE(report.ok) << report.describe();
}

}  // namespace
}  // namespace svelat::io
