// The distributed Wilson operator inside the solver loop, with
// compute/comms overlap.
//
// DistributedWilsonDirac<S> is the hop provider of the Schur operator
// (qcd::BlockSchurEvenOddWilson, qcd/block.h) on one rank's sub-lattice,
// and the only multi-rank Wilson operator: a distributed solve runs the
// same N = 1 Schur engine a single-rank solve runs.  Its primitive is a
// parity-restricted hopping sweep, sweep<G5In>(parity, in, hook): the
// hopping term into every site of the target parity, read from the
// opposite-parity half field `in`, each site's sum handed to a post hook
// while still in registers.  Every sweep is one pass of the overlap
// schedule:
//
//   phase 1  post      both half faces of `in` go onto the wire
//                      (tags 200/201)                  ["cshift_pack"]
//   phase 2  interior  sweep the target sites whose stencils are entirely
//                      local while the faces are in flight
//                                                      ["dhop_interior"]
//   phase 3  wait      recv + decompress + unpack the two ghost half
//                      faces                           ["dhop_wire_wait"]
//   phase 4  boundary  sweep only the target sites on the split-dimension
//                      edge slices, with the off-rank neighbour fetched
//                      from the ghost faces            ["dhop_faces"]
//
// The engine's post hooks (StoreColumn, DiagColumn: qcd/dhop_kernel.h)
// fuse the Schur diagonal, gamma5 and mhat_norm2's per-site norms into the
// sweep exactly as on one rank.
//
// Half faces: every hop flips parity, so an off-rank neighbour has the
// source parity, and only the source-parity sites of an edge slice go on
// the wire -- half a full face.  Every local extent is even (asserted for
// the split dimension, by the half grids for the others), so every slab
// starts on an even coordinate and a site's local parity is its global
// parity; and in comms::face_site_index order the sites 2k and 2k+1 have
// opposite parities, so the source-parity site of face index i sits at
// i / 2 of the half face.
//
// Links stay in the one double-stored full-grid gauge and are read at
// full_osite(h).  The gauge link face (tag 202) crosses the wire ONCE, at
// construction: u_bwd[split] is a Cshift whose edge slice belongs to the
// neighbouring rank, and the gauge field never changes during a solve.
//
// Boundary sites run the same site kernel with a source hook that routes
// exactly the split-dimension off-rank hop to a spinor gathered from the
// ghost face; every other hop, and every interior site, is the parity
// stencil source -- so each site's arithmetic is bitwise that of the
// single-rank qcd::SchurEvenOddWilson::sweep.
//
// Reductions: the operator's half grids carry the rank's ReduceRing
// (CommReduceRing below), so every block-field reduction of the Schur
// engine is support/parallel.h's ring_reduce -- bitwise the single-rank
// reduction over the global half grid, identical on every rank, at any
// rank count.  That needs the rank slabs contiguous in global outer-site
// order, i.e. the split dimension must be the slowest-varying one (t,
// split_dim == 3) -- asserted, since lex order folds dimension 0 fastest.
// A distributed Schur solve is therefore bitwise the single-rank one.
//
// Error propagation: a failed exchange in a sweep or a reduction throws
// CommError (on a failure the output field is partial); the solver facade
// (solver/solver.h) catches it and lands the verdict in
// SolverResult::comm_status, so a crashed peer mid-solve is a typed
// failure, not a hang.
#pragma once

#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "comms/distributed.h"
#include "lattice/block.h"
#include "qcd/wilson.h"

namespace svelat::comms {

/// Wire tags of the ring reduction (clear of kShiftTagBase/kDhopTagBase
/// and the scatter/gather collectives).
inline constexpr int kReduceCarryTag = 300;
inline constexpr int kReduceBcastTag = 301;

/// One rank's ReduceRing (support/parallel.h) over a Communicator: the carry
/// on kReduceCarryTag, the broadcast from rank R-1 on kReduceBcastTag.  A
/// failure that survives the retry ladder throws CommError.
class CommReduceRing final : public ReduceRing {
 public:
  CommReduceRing(Communicator& comm, int rank, int ranks)
      : comm_(comm), rank_(rank), ranks_(ranks) {}

  int rank() const override { return rank_; }
  int ranks() const override { return ranks_; }
  void recv_carry(void* data, std::size_t bytes) const override {
    recv(rank_ - 1, kReduceCarryTag, data, bytes, "reduction carry recv failed");
  }
  void send_carry(const void* data, std::size_t bytes) const override {
    send(rank_ + 1, kReduceCarryTag, data, bytes, "reduction carry send failed");
  }
  void broadcast(void* data, std::size_t bytes) const override {
    if (rank_ != ranks_ - 1) {
      recv(ranks_ - 1, kReduceBcastTag, data, bytes, "reduction broadcast recv failed");
      return;
    }
    for (int r = 0; r < ranks_ - 1; ++r)
      send(r, kReduceBcastTag, data, bytes, "reduction broadcast send failed");
  }

 private:
  void send(int to, int tag, const void* data, std::size_t bytes,
            const char* what) const {
    const auto* p = static_cast<const std::uint8_t*>(data);
    const std::vector<std::uint8_t> wire(p, p + bytes);
    check(comm_.send_status(rank_, to, tag, wire), what);
  }
  void recv(int from, int tag, void* data, std::size_t bytes, const char* what) const {
    std::vector<std::uint8_t> wire;
    check(comm_.recv_status(rank_, from, tag, wire), what);
    SVELAT_ASSERT(wire.size() == bytes);
    std::memcpy(data, wire.data(), bytes);
  }
  void check(CommStatus st, const char* what) const {
    if (st != CommStatus::kOk)
      throw CommError(st, std::string(what) + " (rank " + std::to_string(rank_) + ")");
  }

  Communicator& comm_;
  int rank_;
  int ranks_;
};

template <class S>
class DistributedWilsonDirac {
 public:
  using Fermion = qcd::LatticeFermion<S>;
  using sobj = typename Fermion::scalar_object;
  /// The half field a sweep reads: one column of one parity.
  using HalfBlock =
      lattice::BlockLattice<qcd::SpinColourVector<S>, 1, lattice::GridRedBlackCartesian>;

  DistributedWilsonDirac(const RankDecomposition& decomp, Communicator& comm,
                         int rank, const qcd::GaugeField<S>& gauge_local,
                         double mass, Compression mode = Compression::kNone)
      : decomp_(decomp),
        comm_(comm),
        rank_(rank),
        mass_(mass),
        mode_(mode),
        grid_(checked_grid(decomp, rank)),
        ring_(comm, rank, decomp.ranks()),
        even_(grid_, lattice::kParityEven, &ring_),
        odd_(grid_, lattice::kParityOdd, &ring_),
        par_{Parity(&even_, &odd_), Parity(&odd_, &even_)},
        u_fwd_{gauge_local.U[0], gauge_local.U[1], gauge_local.U[2],
               gauge_local.U[3]},
        u_bwd_{lattice::Cshift(gauge_local.U[0], 0, -1),
               lattice::Cshift(gauge_local.U[1], 1, -1),
               lattice::Cshift(gauge_local.U[2], 2, -1),
               lattice::Cshift(gauge_local.U[3], 3, -1)} {
    SVELAT_ASSERT_MSG(gauge_local.grid()->fdimensions() == decomp.local_dims(),
                      "gauge field must live on this rank's sub-lattice");
    build_parity_tables();
    // The one gauge exchange: u_bwd[split]'s edge slice is the
    // neighbouring rank's face.  Post now, complete lazily at first use
    // so all-ranks in-process construction (everyone posts before anyone
    // receives) works single-threaded.
    detail::post_shift_face(decomp_, comm_, rank_, u_fwd_[decomp_.split_dim()],
                            -1, mode_, kDhopTagBase + 2);
  }

  // Stencil tables, half grids and ghost buffers are sized to this rank,
  // and the half grids point at the member ring: never copied or moved.
  DistributedWilsonDirac(const DistributedWilsonDirac&) = delete;
  DistributedWilsonDirac& operator=(const DistributedWilsonDirac&) = delete;

  const lattice::GridCartesian* grid() const { return grid_; }
  const RankDecomposition& decomp() const { return decomp_; }
  Communicator& comm() const { return comm_; }
  int rank() const { return rank_; }
  double mass() const { return mass_; }
  Compression mode() const { return mode_; }

  // --- the hop provider of the Schur operator -----------------------------

  /// This rank's half grids; both carry the rank's ReduceRing.
  const lattice::GridRedBlackCartesian* even_grid() const { return &even_; }
  const lattice::GridRedBlackCartesian* odd_grid() const { return &odd_; }
  double diag() const { return 4.0 + mass_; }

  /// The overlap schedule for one target parity: posts the half faces of
  /// `in` (the opposite parity), sweeps the interior sites of `parity`
  /// while the wire is in flight, completes the faces, sweeps the
  /// boundary sites.  Site h's hopping sum (gamma5 on the neighbour loads
  /// with G5In) goes to the post hook `hook(h)` while still in registers.
  template <bool G5In, class Block, class HookF>
  void sweep(int parity, const Block& in, HookF&& hook) const {
    static_assert(Block::block_size == 1,
                  "the distributed hop provider serves one column");
    const bool even = parity == lattice::kParityEven;
    const lattice::GridRedBlackCartesian& target = even ? even_ : odd_;
    SVELAT_ASSERT_MSG(*in.grid() == (even ? odd_ : even_),
                      "a sweep reads the opposite parity of this rank's half grids");
    const Parity& p = par_[parity];
    throw_on_failure(try_complete_setup());
    // Phase 1: both half faces onto the wire before any arithmetic.
    const auto pack = [&](int slice) { return pack_half_face(in, slice); };
    throw_on_failure(
        detail::try_post_face(decomp_, comm_, rank_, +1, mode_, kDhopTagBase + 0, pack));
    throw_on_failure(
        detail::try_post_face(decomp_, comm_, rank_, -1, mode_, kDhopTagBase + 1, pack));
    // A rank-local hop: the parity stencil over `in`.
    const auto local = [&](std::int64_t h, int dir) {
      return qcd::detail::stencil_source<S>(
          p.stencil, h, dir, [&](std::int64_t s) -> const auto& { return in.at(s, 0); });
    };
    // Phase 2: interior sites overlap with the in-flight faces.
    {
      metrics::ScopedTimer mt("dhop_interior", p.interior_bytes, p.interior_flops);
      thread_for(static_cast<std::int64_t>(p.interior.size()), [&](std::int64_t i) {
        const std::int64_t h = p.interior[static_cast<std::size_t>(i)];
        qcd::detail::hop_site<G5In, S>(
            u_fwd_, u_bwd_, target.full_osite(h), [&](int dir) { return local(h, dir); },
            hook(h));
      });
    }
    // Phase 3: the wire wait -- recv, decompress, unpack into the ghost
    // faces (bytes = wire bytes actually waited on).
    {
      metrics::ScopedTimer mt("dhop_wire_wait");
      throw_on_failure(try_recv_face(+1, kDhopTagBase + 0, ghost_fwd_, mt));
      throw_on_failure(try_recv_face(-1, kDhopTagBase + 1, ghost_bwd_, mt));
    }
    // Phase 4: boundary sites, off-rank hops served from the ghosts.
    {
      metrics::ScopedTimer mt("dhop_faces", p.boundary_bytes, p.boundary_flops);
      const int split = decomp_.split_dim();
      const int edge = decomp_.local_dims()[split] - 1;
      const lattice::Coordinate dims = grid_->fdimensions();
      thread_for(static_cast<std::int64_t>(p.boundary.size()), [&](std::int64_t i) {
        const std::int64_t h = p.boundary[static_cast<std::size_t>(i)];
        const std::int64_t o = target.full_osite(h);
        qcd::SpinColourVector<S> ghost_site;  // an off-rank neighbour, gathered
        qcd::detail::hop_site<G5In, S>(
            u_fwd_, u_bwd_, o,
            [&](int dir) -> qcd::detail::HopSource<S> {
              const bool fwd_cut = dir == split;
              const bool bwd_cut = dir == lattice::Nd + split;
              if (fwd_cut || bwd_cut) {
                // All lanes of an outer site share the split coordinate
                // (simd_layout[split] == 1), so one lane decides.
                const lattice::Coordinate x0 = grid_->global_coor(o, 0);
                if ((fwd_cut && x0[split] == edge) || (bwd_cut && x0[split] == 0)) {
                  const std::vector<sobj>& ghost = fwd_cut ? ghost_fwd_ : ghost_bwd_;
                  for (unsigned l = 0; l < grid_->isites(); ++l) {
                    const lattice::Coordinate x = grid_->global_coor(o, l);
                    tensor::poke_lane(ghost_site, l,
                                      ghost[face_site_index(dims, split, x) / 2]);
                  }
                  return {&ghost_site, 0};
                }
              }
              return local(h, dir);
            },
            hook(h));
      });
    }
  }

  // --- full-lattice helpers -------------------------------------------------

  /// Hopping term on full fields, out = Dh in: the two parity sweeps over
  /// per-call half scratch.
  void dhop(const Fermion& in, Fermion& out) const {
    HalfBlock in_e(&even_), in_o(&odd_), out_e(&even_), out_o(&odd_);
    lattice::pick_checkerboard(in, in_e, 0);
    lattice::pick_checkerboard(in, in_o, 0);
    const auto store = [](HalfBlock& f) {
      return [&f](std::int64_t h) { return qcd::detail::StoreColumn<S>{f.site(h)}; };
    };
    sweep<false>(lattice::kParityEven, in_o, store(out_e));
    sweep<false>(lattice::kParityOdd, in_e, store(out_o));
    lattice::set_checkerboard(out, out_e, 0);
    lattice::set_checkerboard(out, out_o, 0);
  }

  /// Global |a|^2 over ALL ranks' sites, identical on every rank: bitwise
  /// the single-rank norm2 of the gathered field (the ring continues
  /// parallel_reduce's chunk tree over the global site order).
  double global_norm2(const Fermion& a) const {
    const S acc = ring_reduce(&ring_, grid_->osites(), S::zero(), [&](std::int64_t o) {
      return tensor::innerProduct(a[o], a[o]);
    });
    return std::real(reduce(acc));
  }

 private:
  /// One lane of one half-grid site of an edge slice, in half-face order.
  struct FaceSite {
    std::int64_t osite;  ///< half-grid outer site
    unsigned lane;
  };

  /// Per target parity: the parity stencil into the opposite parity and
  /// the interior / boundary split of the target sites.  Per source
  /// parity: its sites on the two edge slices, in half-face order.
  struct Parity {
    Parity(const lattice::GridRedBlackCartesian* target,
           const lattice::GridRedBlackCartesian* source)
        : stencil(target, source) {}

    lattice::StencilRedBlack stencil;
    std::vector<std::int64_t> interior;  ///< half sites, all hops local
    std::vector<std::int64_t> boundary;  ///< half sites on the rank cut
    double interior_bytes = 0.0, interior_flops = 0.0;
    double boundary_bytes = 0.0, boundary_flops = 0.0;
    std::vector<FaceSite> face[2];  ///< sites on slice 0 / slice L-1
  };

  static const lattice::GridCartesian* checked_grid(const RankDecomposition& decomp,
                                                    int rank) {
    const int split = decomp.split_dim();
    const lattice::GridCartesian* g = decomp.grid(rank);
    SVELAT_ASSERT_MSG(g->simd_layout()[split] == 1,
                      "split dimension cannot be SIMD-decomposed "
                      "(use split_simd_layout)");
    SVELAT_ASSERT_MSG(decomp.local_dims()[split] % 2 == 0,
                      "the local extent of the split dimension must be even, "
                      "so every rank slab starts on an even coordinate");
    SVELAT_ASSERT_MSG(
        decomp.ranks() == 1 || split == lattice::Nd - 1,
        "exact global reductions need rank slabs contiguous in site order: "
        "split the slowest dimension (t)");
    return g;
  }

  void throw_on_failure(CommStatus st) const {
    if (st != CommStatus::kOk)
      throw CommError(st, "distributed dhop failed (rank " + std::to_string(rank_) + ")");
  }

  /// Classify each half site as interior (all 8 stencil reads rank-local)
  /// or boundary (the split-dimension hop crosses the rank cut), and list
  /// each parity's edge-slice sites in half-face order.  With local extent
  /// L == 2 every site is boundary and the interior sweep is empty -- the
  /// schedule still pipelines the posts first.
  void build_parity_tables() {
    const int split = decomp_.split_dim();
    const int l_split = decomp_.local_dims()[split];
    const lattice::Coordinate rdims = grid_->rdimensions();
    const lattice::Coordinate dims = grid_->fdimensions();
    const double site_bytes = qcd::kDhopRealsPerSite * sizeof(typename S::real_type);
    const double nsimd = static_cast<double>(grid_->isites());
    for (int parity : {lattice::kParityEven, lattice::kParityOdd}) {
      const lattice::GridRedBlackCartesian& g =
          parity == lattice::kParityEven ? even_ : odd_;
      Parity& p = par_[parity];
      for (std::int64_t h = 0; h < g.osites(); ++h) {
        // simd_layout[split] == 1: the outer coordinate IS the site's
        // split coordinate, identical for every lane.
        const int t = lattice::lex_coor(g.full_osite(h), rdims)[split];
        (t == 0 || t == l_split - 1 ? p.boundary : p.interior).push_back(h);
      }
      const auto n_int = static_cast<double>(p.interior.size());
      const auto n_bnd = static_cast<double>(p.boundary.size());
      p.interior_bytes = site_bytes * nsimd * n_int;
      p.interior_flops = qcd::kDhopFlopsPerSite * nsimd * n_int;
      p.boundary_bytes = site_bytes * nsimd * n_bnd;
      p.boundary_flops = qcd::kDhopFlopsPerSite * nsimd * n_bnd;
      for (int e = 0; e < 2; ++e) {
        lattice::Coordinate x;
        for (int a = 0; a < face_extent(dims, split, 0); ++a)
          for (int b = 0; b < face_extent(dims, split, 1); ++b)
            for (int c = 0; c < face_extent(dims, split, 2); ++c) {
              face_coor(split, e == 0 ? 0 : l_split - 1, a, b, c, x);
              if (lattice::coordinate_parity(x) == parity)
                p.face[e].push_back({g.outer_index(x), g.inner_index(x)});
            }
      }
    }
    half_face_doubles_ =
        par_[0].face[0].size() * detail_components<qcd::SpinColourVector<S>>() * 2;
  }

  /// Complete the construction-time gauge face exchange exactly once.
  CommStatus try_complete_setup() const {
    if (!setup_pending_) return CommStatus::kOk;
    const int split = decomp_.split_dim();
    const CommStatus st =
        detail::try_complete_shift(decomp_, comm_, rank_, u_fwd_[split],
                                   u_bwd_[split], -1, mode_, kDhopTagBase + 2);
    if (st == CommStatus::kOk) setup_pending_ = false;
    return st;
  }

  /// The half face of `in` on edge slice `slice` (0 or L-1): its sites in
  /// half-face order.
  std::vector<double> pack_half_face(const HalfBlock& in, int slice) const {
    const std::vector<FaceSite>& sites =
        par_[in.grid()->parity()].face[slice == 0 ? 0 : 1];
    std::vector<double> buf;
    buf.reserve(half_face_doubles_);
    for (const FaceSite& f : sites)
      pack_site(buf, tensor::peek_lane(in.at(f.osite, 0), f.lane));
    return buf;
  }

  /// Receive one half face into a reusable ghost buffer.  disp follows the
  /// shift convention: +1 ghosts serve the forward hop off the top edge,
  /// -1 the backward hop off the bottom edge.
  CommStatus try_recv_face(int disp, int tag, std::vector<sobj>& ghost,
                           metrics::ScopedTimer& mt) const {
    const int R = decomp_.ranks();
    const int from = (disp == 1) ? (rank_ + 1) % R : (rank_ - 1 + R) % R;
    if (const CommStatus st = comm_.recv_status(rank_, from, tag, wire_);
        st != CommStatus::kOk)
      return st;
    mt.add_bytes(static_cast<double>(wire_.size()));
    ghost = unpack_sites<sobj>(decompress(wire_, half_face_doubles_, mode_));
    return CommStatus::kOk;
  }

  const RankDecomposition& decomp_;
  Communicator& comm_;
  int rank_;
  double mass_;
  Compression mode_;
  const lattice::GridCartesian* grid_;
  CommReduceRing ring_;
  lattice::GridRedBlackCartesian even_;
  lattice::GridRedBlackCartesian odd_;
  Parity par_[2];  ///< indexed by parity
  std::size_t half_face_doubles_ = 0;
  // Double-stored gauge like WilsonDirac; u_bwd_[split]'s edge slice is
  // completed from the neighbour's face at first use.
  qcd::LatticeColourMatrix<S> u_fwd_[lattice::Nd];
  mutable qcd::LatticeColourMatrix<S> u_bwd_[lattice::Nd];
  mutable bool setup_pending_ = true;
  // Per-sweep face buffers.  The operator allocates no field buffers, but
  // face marshalling is not allocation-free: packing, compress and
  // decompress build std::vector buffers on every exchange, and
  // unpack_sites replaces the ghost vectors below.
  mutable std::vector<std::uint8_t> wire_;
  mutable std::vector<sobj> ghost_fwd_;  ///< +split half face of rank+1's slice 0
  mutable std::vector<sobj> ghost_bwd_;  ///< -split half face of rank-1's slice L-1
};

}  // namespace svelat::comms
