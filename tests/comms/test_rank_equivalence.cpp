// Rank-equivalence property suite: scatter -> halo-exchanged operator ->
// gather must reproduce the single-rank operator, for every transport.
//
// The shift sweep covers lattice dims, split dimension, ranks in
// {1, 2, 3, 4} and the compressed / uncompressed wire; the hopping-term
// sweep runs the production DistributedWilsonDirac::dhop against the
// single-rank dhop_via_cshift.  Transports:
//   - the simulated transport (all ranks in one process, mailbox routing),
//   - an in-process SocketWorld, one thread per rank,
//   - the socket transport with REAL OS processes (run_ranks forks one
//     process per rank; each compares its own sub-lattice and the parent
//     asserts every rank exited clean).
// Uncompressed exchanges must match byte for byte; fp16 / fp32 wires are
// held to the respective epsilon at the rank boundary (acceptance
// criterion of the distributed transport).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comms/distributed.h"
#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "lattice/fill.h"
#include "qcd/types.h"
#include "support/parallel.h"
#include "sve/sve.h"

namespace svelat::comms {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using vobj = qcd::SpinColourVector<S>;
using Field = qcd::LatticeFermion<S>;

constexpr unsigned kVL = 256;
constexpr int kSeed = 1234;

/// Relative-error ceilings: eps_f16 = 2^-11, eps_f32 = 2^-24; only the
/// boundary slice is lossy, so the field-level relative error stays below
/// one epsilon with margin.
double error_bound(Compression mode) {
  switch (mode) {
    case Compression::kNone: return 0.0;
    case Compression::kF32: return 0x1.0p-23;
    case Compression::kF16: return 0x1.0p-10;
  }
  return 0.0;
}

lattice::Coordinate pick_layout(const lattice::Coordinate& dims, int split_dim) {
  return split_simd_layout(dims, split_dim, S::Nsimd());
}

struct ShiftCase {
  lattice::Coordinate dims;
  int split_dim;
  int ranks;
  Compression mode;
};

std::vector<ShiftCase> shift_cases() {
  return {
      {{4, 4, 4, 8}, 3, 1, Compression::kNone},
      {{4, 4, 4, 8}, 3, 2, Compression::kNone},
      {{4, 4, 4, 8}, 3, 4, Compression::kNone},
      {{4, 4, 4, 8}, 3, 2, Compression::kF16},
      {{4, 4, 4, 8}, 3, 4, Compression::kF32},
      {{8, 4, 4, 4}, 0, 2, Compression::kNone},
      {{8, 4, 4, 4}, 0, 4, Compression::kF16},
      {{4, 6, 4, 4}, 1, 3, Compression::kNone},
      {{4, 6, 4, 4}, 1, 3, Compression::kF16},
      {{4, 4, 8, 4}, 2, 4, Compression::kNone},
      {{4, 4, 8, 4}, 2, 2, Compression::kF32},
  };
}

std::string describe(const ShiftCase& c, int disp) {
  std::string s = "dims={";
  for (int d = 0; d < lattice::Nd; ++d)
    s += std::to_string(c.dims[d]) + (d + 1 < lattice::Nd ? "," : "}");
  return s + " split=" + std::to_string(c.split_dim) +
         " ranks=" + std::to_string(c.ranks) + " wire=" + compression_name(c.mode) +
         " disp=" + std::to_string(disp);
}

/// Compare a rank-local result against the matching sub-lattice of the
/// single-rank result: byte for byte for an uncompressed wire, else
/// bounded relative error.  Returns 0 on success (usable as a rank exit
/// code).
int check_local(const Field& got, const Field& expect_local, Compression mode) {
  if (mode == Compression::kNone) {
    for (std::int64_t o = 0; o < got.osites(); ++o)
      if (std::memcmp(&got[o], &expect_local[o], sizeof(vobj)) != 0) return 1;
    return 0;
  }
  const double rel = std::sqrt(norm2(got - expect_local) / norm2(expect_local));
  return rel < error_bound(mode) ? 0 : 1;
}

/// The whole per-rank equivalence check, usable from both execution models:
/// build the (deterministic) global field, scatter this rank's piece, run
/// the halo-exchanged shift, compare against the single-rank Cshift.
int shift_rank_body(const ShiftCase& c, int disp, int rank, Communicator& comm) {
  sve::set_vector_length(kVL);
  const RankDecomposition decomp(c.dims, c.split_dim, c.ranks,
                                 pick_layout(c.dims, c.split_dim));
  lattice::GridCartesian global_grid(c.dims, pick_layout(c.dims, c.split_dim));
  Field global(&global_grid);
  gaussian_fill(SiteRNG(kSeed), global);

  const Field local = scatter_rank(decomp, global, rank);
  Field shifted(decomp.grid(rank));
  rank_cshift(decomp, comm, rank, local, shifted, disp, c.mode);

  const Field expect = scatter_rank(decomp, lattice::Cshift(global, c.split_dim, disp),
                                    rank);
  return check_local(shifted, expect, c.mode);
}

TEST(RankEquivalenceSim, ShiftSweepMatchesSingleRank) {
  sve::set_vector_length(kVL);
  for (const ShiftCase& c : shift_cases()) {
    const lattice::Coordinate layout = pick_layout(c.dims, c.split_dim);
    const RankDecomposition decomp(c.dims, c.split_dim, c.ranks, layout);
    lattice::GridCartesian global_grid(c.dims, layout);
    Field global(&global_grid);
    gaussian_fill(SiteRNG(kSeed), global);

    SimCommunicator comm(c.ranks);
    DistributedField<vobj> dist(decomp), shifted(decomp);
    scatter(decomp, global, dist);
    for (const int disp : {+1, -1}) {
      distributed_cshift(decomp, comm, dist, shifted, disp, c.mode);
      Field result(&global_grid);
      result.set_zero();
      gather(decomp, shifted, result);
      const Field expect = lattice::Cshift(global, c.split_dim, disp);
      if (c.mode == Compression::kNone) {
        EXPECT_EQ(norm2(result - expect), 0.0) << describe(c, disp);
      } else {
        const double rel = std::sqrt(norm2(result - expect) / norm2(expect));
        EXPECT_LT(rel, error_bound(c.mode)) << describe(c, disp);
        EXPECT_GT(rel, 0.0) << describe(c, disp) << " (wire should be lossy)";
      }
    }
  }
}

TEST(RankEquivalenceSim, PerRankDriverMatchesAllRanksDriver) {
  // rank_cshift (the real-process entry point) against an in-process
  // SocketWorld: same phases, same wire, one endpoint per rank.
  sve::set_vector_length(kVL);
  for (const ShiftCase& c : shift_cases()) {
    SocketWorld world(c.ranks);
    for (const int disp : {+1, -1}) {
      // Post for every rank first (single-threaded schedule), then
      // complete: mirrors what concurrent rank processes do in time.
      const RankDecomposition decomp(c.dims, c.split_dim, c.ranks,
                                     pick_layout(c.dims, c.split_dim));
      lattice::GridCartesian global_grid(c.dims, pick_layout(c.dims, c.split_dim));
      Field global(&global_grid);
      gaussian_fill(SiteRNG(kSeed), global);
      std::vector<Field> locals, shifted;
      for (int r = 0; r < c.ranks; ++r) {
        locals.push_back(scatter_rank(decomp, global, r));
        shifted.emplace_back(decomp.grid(r));
      }
      const int tag = kShiftTagBase + c.split_dim;
      for (int r = 0; r < c.ranks; ++r)
        detail::post_shift_face(decomp, world.rank(r), r, locals[r], disp, c.mode,
                                tag);
      for (int r = 0; r < c.ranks; ++r)
        detail::complete_shift(decomp, world.rank(r), r, locals[r], shifted[r], disp,
                               c.mode, tag);
      const Field global_shifted = lattice::Cshift(global, c.split_dim, disp);
      for (int r = 0; r < c.ranks; ++r)
        EXPECT_EQ(check_local(shifted[r], scatter_rank(decomp, global_shifted, r),
                              c.mode),
                  0)
            << describe(c, disp) << " rank=" << r;
    }
  }
}

TEST(RankEquivalenceSocket, ShiftSweepMatchesSingleRankInRealProcesses) {
  for (const ShiftCase& c : shift_cases()) {
    for (const int disp : {+1, -1}) {
      const LaunchReport report = run_ranks(
          c.ranks,
          [&](int rank, SocketCommunicator& comm) {
            return shift_rank_body(c, disp, rank, comm);
          });
      EXPECT_TRUE(report.ok) << describe(c, disp) << ": " << report.describe();
    }
  }
}

TEST(RankEquivalenceSocket, RootScatterGatherRoundtripsOverTheWire) {
  const lattice::Coordinate dims{4, 4, 4, 8};
  for (const int ranks : {2, 4}) {
    const LaunchReport report = run_ranks(ranks, [&](int rank,
                                                     SocketCommunicator& comm) {
      sve::set_vector_length(kVL);
      const lattice::Coordinate layout = pick_layout(dims, 3);
      const RankDecomposition decomp(dims, 3, ranks, layout);
      lattice::GridCartesian global_grid(dims, layout);

      Field global(&global_grid);
      Field local(decomp.grid(rank));
      if (rank == 0) gaussian_fill(SiteRNG(kSeed), global);
      scatter_root(decomp, comm, rank, rank == 0 ? &global : nullptr, local);
      // Every rank must now hold exactly its sub-lattice.
      if (norm2(local - scatter_rank(decomp, [&] {
                  Field g(&global_grid);
                  gaussian_fill(SiteRNG(kSeed), g);
                  return g;
                }(), rank)) != 0.0)
        return 2;

      Field back(&global_grid);
      back.set_zero();
      gather_root(decomp, comm, rank, local, rank == 0 ? &back : nullptr);
      if (rank == 0 && norm2(back - global) != 0.0) return 3;
      return 0;
    });
    EXPECT_TRUE(report.ok) << "ranks=" << ranks << ": " << report.describe();
  }
}

// --- the distributed hopping term -----------------------------------------

const lattice::Coordinate kDhopDims{4, 4, 4, 8};
constexpr int kDhopSplit = 3;

/// The deterministic global problem, rebuilt identically by every rank
/// process: gauge links, source and the single-rank oracle's result.
struct DhopProblem {
  DhopProblem()
      : grid(kDhopDims, pick_layout(kDhopDims, kDhopSplit)),
        gauge(&grid),
        psi(&grid),
        expect(&grid) {
    for (int mu = 0; mu < lattice::Nd; ++mu)
      gaussian_fill(SiteRNG(500 + mu), gauge.U[static_cast<std::size_t>(mu)]);
    gaussian_fill(SiteRNG(kSeed), psi);
    qcd::dhop_via_cshift(gauge, psi, expect);
  }

  lattice::GridCartesian grid;
  qcd::GaugeField<S> gauge;
  Field psi, expect;
};

struct DhopCase {
  int ranks;
  Compression mode;
};

std::vector<DhopCase> dhop_cases() {
  return {{2, Compression::kNone},
          {4, Compression::kNone},
          {2, Compression::kF16},
          {4, Compression::kF32}};
}

std::string describe(const DhopCase& c) {
  return "ranks=" + std::to_string(c.ranks) + " wire=" + compression_name(c.mode);
}

/// One rank's production hop, DistributedWilsonDirac::dhop, against its
/// sub-lattice of the single-rank dhop_via_cshift.  Returns 0 on success.
int dhop_rank_body(const DhopProblem& p, const DhopCase& c, int rank,
                   Communicator& comm) {
  const RankDecomposition decomp(kDhopDims, kDhopSplit, c.ranks,
                                 pick_layout(kDhopDims, kDhopSplit));
  qcd::GaugeField<S> u_local(decomp.grid(rank));
  for (int mu = 0; mu < lattice::Nd; ++mu)
    u_local.U[static_cast<std::size_t>(mu)] =
        scatter_rank(decomp, p.gauge.U[static_cast<std::size_t>(mu)], rank);
  const DistributedWilsonDirac<S> op(decomp, comm, rank, u_local, 0.0, c.mode);
  Field out(decomp.grid(rank));
  op.dhop(scatter_rank(decomp, p.psi, rank), out);
  return check_local(out, scatter_rank(decomp, p.expect, rank), c.mode);
}

TEST(RankEquivalenceDhop, SimOneRankMatchesSingleRank) {
  sve::set_vector_length(kVL);
  const DhopProblem p;
  for (const Compression mode :
       {Compression::kNone, Compression::kF16, Compression::kF32}) {
    SimCommunicator comm(1);
    const DhopCase c{1, mode};
    EXPECT_EQ(dhop_rank_body(p, c, 0, comm), 0) << describe(c);
  }
}

TEST(RankEquivalenceDhop, ThreadedSocketWorldMatchesSingleRank) {
  // One thread per rank over its SocketWorld endpoint, so posts and recvs
  // genuinely interleave; site loops run serially inside rank threads.
  sve::set_vector_length(kVL);
  const DhopProblem p;
  for (const DhopCase& c : dhop_cases()) {
    SocketWorld world(c.ranks);
    std::vector<int> status(static_cast<std::size_t>(c.ranks), -1);
    set_force_serial(true);
    std::vector<std::thread> threads;
    for (int r = 0; r < c.ranks; ++r)
      threads.emplace_back([&, r] {
        status[static_cast<std::size_t>(r)] = dhop_rank_body(p, c, r, world.rank(r));
      });
    for (std::thread& t : threads) t.join();
    set_force_serial(false);
    for (int r = 0; r < c.ranks; ++r)
      EXPECT_EQ(status[static_cast<std::size_t>(r)], 0) << describe(c) << " rank=" << r;
  }
}

TEST(RankEquivalenceDhop, SocketMatchesSingleRankInRealProcesses) {
  for (const DhopCase& c : dhop_cases()) {
    const LaunchReport report =
        run_ranks(c.ranks, [&](int rank, SocketCommunicator& comm) {
          sve::set_vector_length(kVL);
          const DhopProblem p;
          return dhop_rank_body(p, c, rank, comm);
        });
    EXPECT_TRUE(report.ok) << describe(c) << ": " << report.describe();
  }
}

TEST(RankEquivalenceSocket, WireTrafficMatchesFaceSize) {
  // Each rank sends exactly one face per shift; bytes_sent is per-endpoint
  // on the socket transport (the simulated transport counts all ranks in
  // one tally -- see test_distributed.cpp for that variant).
  const lattice::Coordinate dims{4, 4, 4, 8};
  const LaunchReport report = run_ranks(2, [&](int rank, SocketCommunicator& comm) {
    sve::set_vector_length(kVL);
    const lattice::Coordinate layout = pick_layout(dims, 3);
    const RankDecomposition decomp(dims, 3, 2, layout);
    lattice::GridCartesian global_grid(dims, layout);
    Field global(&global_grid);
    gaussian_fill(SiteRNG(kSeed), global);
    const Field local = scatter_rank(decomp, global, rank);
    Field shifted(decomp.grid(rank));
    comm.reset_counters();
    rank_cshift(decomp, comm, rank, local, shifted, +1);
    // One 4^3 face of 12 complex = 24 doubles per site.
    const std::size_t expected = 64u * 24u * sizeof(double);
    return comm.bytes_sent() == expected ? 0 : 1;
  });
  EXPECT_TRUE(report.ok) << report.describe();
}

TEST(RankEquivalenceSocket, ParitySweepSendsTwoHalfFaces) {
  // One parity sweep of the distributed operator posts the two faces of
  // its half-field input, each holding only the source-parity sites of an
  // edge slice: half of a full face's bytes.
  const lattice::Coordinate dims{4, 4, 4, 8};
  const LaunchReport report = run_ranks(2, [&](int rank, SocketCommunicator& comm) {
    sve::set_vector_length(kVL);
    const RankDecomposition decomp(dims, 3, 2, pick_layout(dims, 3));
    qcd::GaugeField<S> gauge(decomp.grid(rank));
    for (int mu = 0; mu < lattice::Nd; ++mu)
      gaussian_fill(SiteRNG(500 + mu), gauge.U[static_cast<std::size_t>(mu)]);
    Field psi(decomp.grid(rank));
    gaussian_fill(SiteRNG(kSeed), psi);
    const DistributedWilsonDirac<S> op(decomp, comm, rank, gauge, 0.0);
    using HalfBlock = DistributedWilsonDirac<S>::HalfBlock;
    HalfBlock in(op.odd_grid()), out(op.even_grid());
    lattice::pick_checkerboard(psi, in, 0);
    comm.reset_counters();  // the construction-time gauge face is sent
    op.sweep<false>(lattice::kParityEven, in, [&](std::int64_t h) {
      return qcd::detail::StoreColumn<S>{out.site(h)};
    });
    // Two half faces of 4^3 / 2 sites, 12 complex = 24 doubles per site.
    const std::size_t expected = 2u * 32u * 24u * sizeof(double);
    return comm.bytes_sent() == expected ? 0 : 1;
  });
  EXPECT_TRUE(report.ok) << report.describe();
}

}  // namespace
}  // namespace svelat::comms
