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
// while still in registers.  The arithmetic is not its own: it holds one
// qcd::SchurEvenOddWilson, the hop core, built on its slab, and keeps
// only the distributed parts -- face posts and waits, the interior,
// boundary and half-face site lists, the ghost buffers and the gauge face.
// Every sweep is one pass of the overlap schedule:
//
//   phase 1  post      both half faces of `in` go onto the wire
//                      (tags 200/201)                  ["cshift_pack"]
//   phase 2  interior  the core's sweep over the target sites whose
//                      stencils are entirely local, while the faces are
//                      in flight                       ["dhop_interior"]
//   phase 3  wait      recv + decompress + unpack the two ghost half
//                      faces                           ["dhop_wire_wait"]
//   phase 4  boundary  the core's sweep over the target sites on the
//                      split-dimension edge slices, with the off-rank
//                      neighbour fetched from the ghost faces
//                                                      ["dhop_faces"]
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
// Links are the core's one double-stored full-grid gauge, read at
// full_osite(h) -- the same layout a single-rank solve reads.  The gauge
// link face (tag 202) crosses the wire ONCE, at construction: u_bwd[split]
// is a Cshift whose edge slice belongs to the neighbouring rank, and the
// gauge field never changes during a solve.  It is completed into the
// core's backward links at the first sweep, so the constructor never
// blocks on a receive.
//
// Boundary sites run the core's sweep with a per-hop source hook that
// routes exactly the split-dimension off-rank hop to a spinor gathered
// from the ghost face; every other hop, and every interior site, is the
// parity stencil source -- so each site's arithmetic is bitwise that of
// the single-rank qcd::SchurEvenOddWilson::sweep.
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
#include "qcd/even_odd.h"

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
        mode_(mode),
        ring_(comm, rank, decomp.ranks()),
        core_(checked_gauge(decomp, rank, gauge_local), mass, &ring_) {
    build_site_lists();
    // The one gauge exchange: u_bwd[split]'s edge slice is the
    // neighbouring rank's face.  Post now, complete lazily at first use
    // so all-ranks in-process construction (everyone posts before anyone
    // receives) works single-threaded.
    detail::post_shift_face(decomp_, comm_, rank_, core_.u_fwd(decomp_.split_dim()), -1,
                            mode_, kDhopTagBase + 2);
  }

  // Site lists, the core's half grids and the ghost buffers are sized to
  // this rank, and the half grids point at the member ring: never copied
  // or moved.
  DistributedWilsonDirac(const DistributedWilsonDirac&) = delete;
  DistributedWilsonDirac& operator=(const DistributedWilsonDirac&) = delete;

  const lattice::GridCartesian* grid() const { return core_.even_grid()->full_grid(); }
  const RankDecomposition& decomp() const { return decomp_; }
  Communicator& comm() const { return comm_; }
  int rank() const { return rank_; }
  double mass() const { return core_.mass(); }
  Compression mode() const { return mode_; }

  // --- the hop provider of the Schur operator -----------------------------

  /// This rank's half grids; both carry the rank's ReduceRing.
  const lattice::GridRedBlackCartesian* even_grid() const { return core_.even_grid(); }
  const lattice::GridRedBlackCartesian* odd_grid() const { return core_.odd_grid(); }
  double diag() const { return core_.diag(); }

  /// The overlap schedule for one target parity: posts the half faces of
  /// `in` (the opposite parity), sweeps the interior sites of `parity`
  /// while the wire is in flight, completes the faces, sweeps the
  /// boundary sites.  Site h's hopping sum (gamma5 on the neighbour loads
  /// with G5In) goes to the post hook `hook(h)` while still in registers.
  template <bool G5In, class Block, class HookF>
  void sweep(int parity, const Block& in, HookF&& hook) const {
    static_assert(Block::block_size == 1,
                  "the distributed hop provider serves one column");
    // Checked before the face packing below indexes `in`.
    SVELAT_ASSERT_MSG(*in.grid() == *(parity == lattice::kParityEven ? odd_grid()
                                                                       : even_grid()),
                      "a sweep reads the opposite parity of this rank's half grids");
    const Sites& p = sites_[parity];
    complete_setup();
    // Phase 1: both half faces onto the wire before any arithmetic.
    const auto pack = [&](int slice) { return pack_half_face(in, slice); };
    detail::post_face(decomp_, comm_, rank_, +1, mode_, kDhopTagBase + 0, pack);
    detail::post_face(decomp_, comm_, rank_, -1, mode_, kDhopTagBase + 1, pack);
    // Phase 2: interior sites overlap with the in-flight faces; every hop
    // is the parity stencil's.
    {
      metrics::ScopedTimer mt("dhop_interior");
      sweep_list<G5In>(parity, in, p.interior,
                       [](std::int64_t) { return qcd::detail::StencilHops{}; }, hook);
    }
    // Phase 3: the wire wait -- recv, decompress, unpack into the ghost
    // faces (bytes = wire bytes actually waited on).
    {
      metrics::ScopedTimer mt("dhop_wire_wait");
      recv_face(+1, kDhopTagBase + 0, ghost_fwd_, mt);
      recv_face(-1, kDhopTagBase + 1, ghost_bwd_, mt);
    }
    // Phase 4: boundary sites, off-rank hops served from the ghosts.
    {
      metrics::ScopedTimer mt("dhop_faces");
      const lattice::GridRedBlackCartesian* target =
          parity == lattice::kParityEven ? even_grid() : odd_grid();
      sweep_list<G5In>(
          parity, in, p.boundary,
          [&](std::int64_t h) { return GhostHops(*this, target->full_osite(h)); }, hook);
    }
  }

  // --- full-lattice helpers -------------------------------------------------

  /// Hopping term on full fields, out = Dh in: the two parity sweeps over
  /// per-call half scratch.
  void dhop(const Fermion& in, Fermion& out) const {
    HalfBlock in_e(even_grid()), in_o(odd_grid()), out_e(even_grid()), out_o(odd_grid());
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
    const S acc = ring_reduce(&ring_, grid()->osites(), S::zero(), [&](std::int64_t o) {
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

  /// Per target parity: the interior / boundary split of its half sites.
  /// Per source parity: its sites on the two edge slices, in half-face
  /// order.
  struct Sites {
    std::vector<std::int64_t> interior;  ///< half sites, all hops local
    std::vector<std::int64_t> boundary;  ///< half sites on the rank cut
    std::vector<FaceSite> face[2];  ///< sites on slice 0 / slice L-1
  };

  /// Per-hop source hook of a boundary site: the split-dimension hop off
  /// the rank's edge reads a spinor gathered from the ghost half face,
  /// every other hop the parity stencil's neighbour.
  class GhostHops {
   public:
    GhostHops(const DistributedWilsonDirac& op, std::int64_t osite)
        : op_(op), osite_(osite) {}

    qcd::detail::HopSource<S> operator()(int dir,
                                         const qcd::detail::HopSource<S>& local) {
      const int split = op_.decomp_.split_dim();
      const bool fwd_cut = dir == split;
      if (!fwd_cut && dir != lattice::Nd + split) return local;
      // All lanes of an outer site share the split coordinate
      // (simd_layout[split] == 1), so one lane decides.
      const lattice::GridCartesian* g = op_.grid();
      const int t = g->global_coor(osite_, 0)[split];
      if (t != (fwd_cut ? op_.decomp_.local_dims()[split] - 1 : 0)) return local;
      const std::vector<sobj>& ghost = fwd_cut ? op_.ghost_fwd_ : op_.ghost_bwd_;
      for (unsigned l = 0; l < g->isites(); ++l) {
        const lattice::Coordinate x = g->global_coor(osite_, l);
        tensor::poke_lane(ghost_site_, l,
                          ghost[face_site_index(g->fdimensions(), split, x) / 2]);
      }
      return {&ghost_site_, 0};
    }

   private:
    const DistributedWilsonDirac& op_;
    std::int64_t osite_;  ///< the site's full-grid outer index
    // An off-rank neighbour, gathered; the kernel loads it before asking
    // for the next hop.
    qcd::SpinColourVector<S> ghost_site_;
  };

  /// The core's sweep over the target sites listed in `sites`.
  template <bool G5In, class SourceF, class HookF>
  void sweep_list(int parity, const HalfBlock& in, const std::vector<std::int64_t>& sites,
                  SourceF&& source, HookF&& hook) const {
    core_.template sweep_sites<G5In>(
        parity, in, static_cast<std::int64_t>(sites.size()),
        [&](std::int64_t i) { return sites[static_cast<std::size_t>(i)]; }, source, hook);
  }

  static const qcd::GaugeField<S>& checked_gauge(const RankDecomposition& decomp,
                                                 int rank,
                                                 const qcd::GaugeField<S>& gauge_local) {
    const int split = decomp.split_dim();
    const lattice::GridCartesian* g = decomp.grid(rank);
    SVELAT_ASSERT_MSG(*gauge_local.grid() == *g,
                      "gauge field must live on this rank's sub-lattice");
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
    return gauge_local;
  }

  /// Classify each half site as interior (all 8 stencil reads rank-local)
  /// or boundary (the split-dimension hop crosses the rank cut), and list
  /// each parity's edge-slice sites in half-face order.  With local extent
  /// L == 2 every site is boundary and the interior sweep is empty -- the
  /// schedule still pipelines the posts first.
  void build_site_lists() {
    const int split = decomp_.split_dim();
    const int l_split = decomp_.local_dims()[split];
    const lattice::Coordinate rdims = grid()->rdimensions();
    const lattice::Coordinate dims = grid()->fdimensions();
    for (int parity : {lattice::kParityEven, lattice::kParityOdd}) {
      const lattice::GridRedBlackCartesian& g =
          parity == lattice::kParityEven ? *even_grid() : *odd_grid();
      Sites& p = sites_[parity];
      for (std::int64_t h = 0; h < g.osites(); ++h) {
        // simd_layout[split] == 1: the outer coordinate IS the site's
        // split coordinate, identical for every lane.
        const int t = lattice::lex_coor(g.full_osite(h), rdims)[split];
        (t == 0 || t == l_split - 1 ? p.boundary : p.interior).push_back(h);
      }
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
        sites_[0].face[0].size() * detail_components<qcd::SpinColourVector<S>>() * 2;
  }

  /// Complete the construction-time gauge face exchange exactly once, into
  /// the core's backward links.
  void complete_setup() const {
    if (!setup_pending_) return;
    const int split = decomp_.split_dim();
    detail::complete_shift(decomp_, comm_, rank_, core_.u_fwd(split), core_.u_bwd(split),
                           -1, mode_, kDhopTagBase + 2);
    setup_pending_ = false;
  }

  /// The half face of `in` on edge slice `slice` (0 or L-1): its sites in
  /// half-face order.
  std::vector<double> pack_half_face(const HalfBlock& in, int slice) const {
    const std::vector<FaceSite>& sites =
        sites_[in.grid()->parity()].face[slice == 0 ? 0 : 1];
    std::vector<double> buf;
    buf.reserve(half_face_doubles_);
    for (const FaceSite& f : sites)
      pack_site(buf, tensor::peek_lane(in.at(f.osite, 0), f.lane));
    return buf;
  }

  /// Receive one half face into a reusable ghost buffer.  disp follows the
  /// shift convention: +1 ghosts serve the forward hop off the top edge,
  /// -1 the backward hop off the bottom edge.
  void recv_face(int disp, int tag, std::vector<sobj>& ghost,
                 metrics::ScopedTimer& mt) const {
    const int R = decomp_.ranks();
    const int from = (disp == 1) ? (rank_ + 1) % R : (rank_ - 1 + R) % R;
    const std::vector<std::uint8_t> wire = comm_.recv(rank_, from, tag);
    mt.add_bytes(static_cast<double>(wire.size()));
    ghost = unpack_sites<sobj>(decompress(wire, half_face_doubles_, mode_));
  }

  const RankDecomposition& decomp_;
  Communicator& comm_;
  int rank_;
  Compression mode_;
  CommReduceRing ring_;
  // The hop core on this rank's slab: half grids (carrying ring_),
  // parity stencils, links and the one parity sweep.  Mutable: its
  // u_bwd[split] edge slice is completed from the neighbour's face at
  // first use.
  mutable qcd::SchurEvenOddWilson<S> core_;
  Sites sites_[2];  ///< indexed by parity
  std::size_t half_face_doubles_ = 0;
  mutable bool setup_pending_ = true;
  // Per-sweep ghost faces.  The operator allocates no field buffers, but
  // face marshalling is not allocation-free: packing, compress, the
  // receive and decompress build std::vector buffers on every exchange,
  // and unpack_sites replaces the ghost vectors below.
  mutable std::vector<sobj> ghost_fwd_;  ///< +split half face of rank+1's slice 0
  mutable std::vector<sobj> ghost_bwd_;  ///< -split half face of rank-1's slice L-1
};

}  // namespace svelat::comms
