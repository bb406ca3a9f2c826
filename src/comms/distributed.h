// Multi-rank domain decomposition over a pluggable Communicator.
//
// Paper Sec. II-A: "a set of sub-lattices is distributed over (a very
// large number of) different processes, e.g., different MPI ranks".  The
// lattice is split along one dimension into R rank-local sub-lattices
// (each with its own virtual-node SIMD layout), and the nearest-neighbour
// shift becomes local shift + boundary-face halo exchange through a
// Communicator, optionally fp16-compressed on the wire (Sec. V-B).
//
// Two execution models share every line of the pack -> compress -> send ->
// recv -> decompress -> unpack path (detail::post_shift_face /
// detail::complete_shift):
//
//   - rank_cshift: ONE rank's half of the exchange, called from a real
//     rank process over the SocketCommunicator (comms/socket.h) -- post the
//     outgoing face, then local shift + blocking recv + boundary fix-up.
//   - distributed_cshift: all R ranks driven from one process over any
//     in-process transport (SimCommunicator mailboxes or an in-process
//     SocketWorld): every rank posts first, then every rank completes, so
//     the single-threaded schedule never recvs before the matching send.
//
// Verification contract: scatter -> distributed_cshift -> gather must equal
// the single-rank Cshift exactly (or to fp16 accuracy when compressed) --
// enforced against BOTH transports, with real OS processes for the socket
// one, by tests/comms/test_rank_equivalence.cpp.
#pragma once

#include <memory>
#include <vector>

#include "comms/halo.h"
#include "lattice/cshift.h"
#include "support/metrics.h"

namespace svelat::comms {

/// Splits dimension `split_dim` of a global lattice across `ranks`
/// processes.
class RankDecomposition {
 public:
  RankDecomposition(const lattice::Coordinate& global_dims, int split_dim, int ranks,
                    const lattice::Coordinate& simd_layout)
      : global_dims_(global_dims), split_dim_(split_dim), ranks_(ranks) {
    SVELAT_ASSERT_MSG(ranks > 0 && global_dims[split_dim] % ranks == 0,
                      "lattice extent must divide evenly across ranks");
    local_dims_ = global_dims;
    local_dims_[split_dim] /= ranks;
    for (int r = 0; r < ranks; ++r)
      grids_.push_back(
          std::make_unique<lattice::GridCartesian>(local_dims_, simd_layout));
  }

  int ranks() const { return ranks_; }
  int split_dim() const { return split_dim_; }
  const lattice::Coordinate& global_dims() const { return global_dims_; }
  const lattice::Coordinate& local_dims() const { return local_dims_; }
  const lattice::GridCartesian* grid(int rank) const {
    return grids_[static_cast<std::size_t>(rank)].get();
  }

  /// Rank owning a global coordinate, and its rank-local image.
  int owner(const lattice::Coordinate& global) const {
    return global[split_dim_] / local_dims_[split_dim_];
  }
  lattice::Coordinate to_local(const lattice::Coordinate& global) const {
    lattice::Coordinate local = global;
    local[split_dim_] %= local_dims_[split_dim_];
    return local;
  }
  lattice::Coordinate to_global(int rank, const lattice::Coordinate& local) const {
    lattice::Coordinate global = local;
    global[split_dim_] += rank * local_dims_[split_dim_];
    return global;
  }

 private:
  lattice::Coordinate global_dims_;
  int split_dim_;
  int ranks_;
  lattice::Coordinate local_dims_;
  std::vector<std::unique_ptr<lattice::GridCartesian>> grids_;
};

/// SIMD layout for rank-local grids: spread the Nsimd factors of two over
/// dimensions away from `split_dim` (whose rank-local extent can shrink to
/// 2) with extent divisible by 4, keeping virtual-node blocks >= 2 sites.
/// Pass the GLOBAL dims: the candidate dimensions have the same extent on
/// every rank-local grid.
inline lattice::Coordinate split_simd_layout(const lattice::Coordinate& global_dims,
                                             int split_dim, unsigned nsimd) {
  lattice::Coordinate layout{1, 1, 1, 1};
  unsigned lanes = nsimd;
  for (int d = lattice::Nd - 1; d >= 0 && lanes > 1; --d) {
    if (d == split_dim || global_dims[d] % 4 != 0) continue;
    layout[d] = 2;
    lanes /= 2;
  }
  SVELAT_ASSERT_MSG(lanes == 1, "no non-split dimension can host the SIMD layout");
  return layout;
}

/// Number of complex components in a site object.
template <class vobj>
constexpr std::size_t detail_components() {
  using sobj = tensor::scalar_object_t<vobj>;
  using C = tensor::scalar_element_t<sobj>;
  return sizeof(sobj) / sizeof(C);
}

/// A field distributed over all ranks (one local Lattice per rank; in a
/// real run each rank holds exactly one of these -- see scatter_rank).
template <class vobj>
struct DistributedField {
  explicit DistributedField(const RankDecomposition& decomp) {
    for (int r = 0; r < decomp.ranks(); ++r) locals.emplace_back(decomp.grid(r));
  }
  std::vector<lattice::Lattice<vobj>> locals;
};

/// Extract one rank's sub-lattice of a global field.
template <class vobj>
lattice::Lattice<vobj> scatter_rank(const RankDecomposition& decomp,
                                    const lattice::Lattice<vobj>& global, int rank) {
  SVELAT_ASSERT_MSG(global.grid()->fdimensions() == decomp.global_dims(),
                    "dimension mismatch");
  const lattice::GridCartesian* g = decomp.grid(rank);
  lattice::Lattice<vobj> local(g);
  for (std::int64_t o = 0; o < g->osites(); ++o)
    for (unsigned l = 0; l < g->isites(); ++l) {
      const lattice::Coordinate x = g->global_coor(o, l);
      local.poke(x, global.peek(decomp.to_global(rank, x)));
    }
  return local;
}

/// Scatter a global field to the ranks (in-process, all locals at once).
template <class vobj>
void scatter(const RankDecomposition& decomp, const lattice::Lattice<vobj>& global,
             DistributedField<vobj>& dist) {
  const lattice::GridCartesian* g = global.grid();
  SVELAT_ASSERT_MSG(g->fdimensions() == decomp.global_dims(), "dimension mismatch");
  for (std::int64_t o = 0; o < g->osites(); ++o) {
    for (unsigned l = 0; l < g->isites(); ++l) {
      const lattice::Coordinate x = g->global_coor(o, l);
      const int rank = decomp.owner(x);
      dist.locals[static_cast<std::size_t>(rank)].poke(decomp.to_local(x),
                                                       global.peek(x));
    }
  }
}

/// Gather rank-local fields back into a global one (in-process).
template <class vobj>
void gather(const RankDecomposition& decomp, const DistributedField<vobj>& dist,
            lattice::Lattice<vobj>& global) {
  for (int r = 0; r < decomp.ranks(); ++r) {
    const lattice::GridCartesian* g = decomp.grid(r);
    for (std::int64_t o = 0; o < g->osites(); ++o) {
      for (unsigned l = 0; l < g->isites(); ++l) {
        const lattice::Coordinate local = g->global_coor(o, l);
        global.poke(decomp.to_global(r, local),
                    dist.locals[static_cast<std::size_t>(r)].peek(local));
      }
    }
  }
}

// --- whole-field wire marshalling (root scatter / gather) -------------------

/// All sites of a local field as flat doubles: the concatenation of the
/// mu=0 faces for every slice, i.e. pack_face's wire layout (complex
/// components in lexicographic site order) extended to the whole field.
/// Layout-independent, so sender and receiver may use different SIMD
/// layouts; any change to the per-site component encoding lives solely in
/// pack_face/unpack_face (comms/halo.h).
template <class vobj>
std::vector<double> pack_field(const lattice::Lattice<vobj>& f) {
  const lattice::Coordinate dims = f.grid()->fdimensions();
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(lattice::volume(dims)) *
              detail_components<vobj>() * 2);
  for (int s = 0; s < dims[0]; ++s) {
    const std::vector<double> face = pack_face(f, /*mu=*/0, s);
    buf.insert(buf.end(), face.begin(), face.end());
  }
  return buf;
}

/// Inverse of pack_field.
template <class vobj>
void unpack_field(const std::vector<double>& buf, lattice::Lattice<vobj>& f) {
  const lattice::Coordinate dims = f.grid()->fdimensions();
  const std::size_t face_doubles =
      static_cast<std::size_t>(lattice::volume(dims) / dims[0]) *
      detail_components<vobj>() * 2;
  SVELAT_ASSERT(buf.size() == face_doubles * static_cast<std::size_t>(dims[0]));
  std::vector<double> face(face_doubles);
  for (int s = 0; s < dims[0]; ++s) {
    const auto begin = buf.begin() + static_cast<std::ptrdiff_t>(face_doubles) * s;
    face.assign(begin, begin + static_cast<std::ptrdiff_t>(face_doubles));
    const auto sites = unpack_face(face, f);
    std::size_t idx = 0;
    lattice::Coordinate x;
    for (int a = 0; a < face_extent(dims, 0, 0); ++a)
      for (int b = 0; b < face_extent(dims, 0, 1); ++b)
        for (int c = 0; c < face_extent(dims, 0, 2); ++c) {
          face_coor(/*mu=*/0, s, a, b, c, x);
          f.poke(x, sites[idx++]);
        }
  }
}

/// Wire tags used by the collective helpers (user tags should stay clear
/// of these).
inline constexpr int kShiftTagBase = 100;    // + split dimension
inline constexpr int kDhopTagBase = 200;     // + exchange sequence number
inline constexpr int kScatterTag = 900;
inline constexpr int kGatherTag = 901;

/// Root-based scatter over the wire: rank 0 cuts the global field into
/// sub-lattices and ships each to its owner.  `global` may be null on
/// ranks != 0 (only rank 0 reads it).  Every rank passes its own `local`.
template <class vobj>
void scatter_root(const RankDecomposition& decomp, Communicator& comm, int rank,
                  const lattice::Lattice<vobj>* global, lattice::Lattice<vobj>& local) {
  if (rank == 0) {
    SVELAT_ASSERT_MSG(global != nullptr, "rank 0 must hold the global field");
    for (int r = decomp.ranks() - 1; r >= 0; --r) {
      lattice::Lattice<vobj> piece = scatter_rank(decomp, *global, r);
      if (r == 0)
        local = std::move(piece);
      else
        comm.send(0, r, kScatterTag, compress(pack_field(piece), Compression::kNone));
    }
  } else {
    const auto wire = comm.recv(rank, 0, kScatterTag);
    const std::size_t ndoubles = wire.size() / sizeof(double);
    unpack_field(decompress(wire, ndoubles, Compression::kNone), local);
  }
}

/// Root-based gather over the wire: every rank ships its sub-lattice to
/// rank 0, which assembles the global field.  `global` may be null on
/// ranks != 0.
template <class vobj>
void gather_root(const RankDecomposition& decomp, Communicator& comm, int rank,
                 const lattice::Lattice<vobj>& local, lattice::Lattice<vobj>* global) {
  if (rank == 0) {
    SVELAT_ASSERT_MSG(global != nullptr, "rank 0 must hold the global field");
    for (int r = 0; r < decomp.ranks(); ++r) {
      lattice::Lattice<vobj> piece(decomp.grid(r));
      if (r == 0) {
        piece = local;
      } else {
        const auto wire = comm.recv(0, r, kGatherTag);
        const std::size_t ndoubles = wire.size() / sizeof(double);
        unpack_field(decompress(wire, ndoubles, Compression::kNone), piece);
      }
      const lattice::GridCartesian* g = decomp.grid(r);
      for (std::int64_t o = 0; o < g->osites(); ++o)
        for (unsigned l = 0; l < g->isites(); ++l) {
          const lattice::Coordinate x = g->global_coor(o, l);
          global->poke(decomp.to_global(r, x), piece.peek(x));
        }
    }
  } else {
    comm.send(rank, 0, kGatherTag, compress(pack_field(local), Compression::kNone));
  }
}

// --- halo-exchanged shift ---------------------------------------------------

namespace detail {

/// Phase 1 of a split-dimension exchange: rank `rank` posts the boundary
/// face the neighbour needs, `pack(slice)` marshalling the edge slice.
/// Transients are retried per the communicator's policy; a failure that
/// survives them throws CommError.
///   disp=+1: result(x_mu = L-1) = f(rank+1, x_mu = 0)   -> face 0 goes back.
///   disp=-1: result(x_mu = 0)   = f(rank-1, x_mu = L-1) -> face L-1 forward.
template <class PackF>
void post_face(const RankDecomposition& decomp, Communicator& comm, int rank, int disp,
               Compression mode, int tag, PackF&& pack) {
  const int R = decomp.ranks();
  const int dest = (disp == 1) ? (rank - 1 + R) % R : (rank + 1) % R;
  const int slice = (disp == 1) ? 0 : decomp.local_dims()[decomp.split_dim()] - 1;
  std::vector<std::uint8_t> wire;
  {
    // Wall-clock region over pack + compress only (metrics bytes = wire
    // bytes); the send leg is transport time, not marshalling throughput.
    metrics::ScopedTimer mt("cshift_pack");
    wire = compress(pack(slice), mode);
    mt.add_bytes(static_cast<double>(wire.size()));
  }
  comm.send(rank, dest, tag, std::move(wire));
}

/// post_face of a whole face of a full field (the shifted exchange).
template <class vobj>
void post_shift_face(const RankDecomposition& decomp, Communicator& comm, int rank,
                     const lattice::Lattice<vobj>& local_in, int disp,
                     Compression mode, int tag) {
  post_face(decomp, comm, rank, disp, mode, tag, [&](int slice) {
    return pack_face(local_in, decomp.split_dim(), slice);
  });
}

/// Phase 2: local shift everywhere, then overwrite the rank-boundary
/// slice with the neighbouring rank's face.  A receive that fails past
/// the retries throws CommError, and `local_out` then holds the locally
/// shifted field with a WRAPPED (not exchanged) boundary.
template <class vobj>
void complete_shift(const RankDecomposition& decomp, Communicator& comm, int rank,
                    const lattice::Lattice<vobj>& local_in,
                    lattice::Lattice<vobj>& local_out, int disp, Compression mode,
                    int tag) {
  const int mu = decomp.split_dim();
  const int R = decomp.ranks();
  const int l_mu = decomp.local_dims()[mu];

  local_out = lattice::Cshift(local_in, mu, disp);  // interior correct; edge wrapped

  const int from = (disp == 1) ? (rank + 1) % R : (rank - 1 + R) % R;
  const std::vector<std::uint8_t> wire = comm.recv(rank, from, tag);
  const lattice::GridCartesian* g = decomp.grid(rank);
  const lattice::Coordinate dims = g->fdimensions();
  const std::size_t face_doubles =
      static_cast<std::size_t>(lattice::volume(dims) / dims[mu]) *
      detail_components<vobj>() * 2;
  // Decompress + unpack + boundary pokes (metrics bytes = wire bytes);
  // the recv wait above is transport time, excluded from the region.
  metrics::ScopedTimer mt("cshift_unpack", static_cast<double>(wire.size()));
  const auto values = decompress(wire, face_doubles, mode);
  const auto sites = unpack_face(values, local_in);

  const int edge = (disp == 1) ? l_mu - 1 : 0;
  std::size_t idx = 0;
  for (int a = 0; a < face_extent(dims, mu, 0); ++a)
    for (int b = 0; b < face_extent(dims, mu, 1); ++b)
      for (int c = 0; c < face_extent(dims, mu, 2); ++c) {
        lattice::Coordinate x;
        face_coor(mu, edge, a, b, c, x);
        local_out.poke(x, sites[idx++]);
      }
}

}  // namespace detail

/// One rank's halo-exchanged shift along the split dimension: post the
/// outgoing face, local shift, blocking recv + boundary fix-up.  This is
/// the call a real rank process makes (socket transport); with R == 1 the
/// face self-sends and reproduces the periodic wrap.
template <class vobj>
void rank_cshift(const RankDecomposition& decomp, Communicator& comm, int rank,
                 const lattice::Lattice<vobj>& in, lattice::Lattice<vobj>& out,
                 int disp, Compression mode = Compression::kNone, int tag = -1) {
  SVELAT_ASSERT_MSG(disp == 1 || disp == -1, "nearest-neighbour shifts only");
  if (tag < 0) tag = kShiftTagBase + decomp.split_dim();
  detail::post_shift_face(decomp, comm, rank, in, disp, mode, tag);
  detail::complete_shift(decomp, comm, rank, in, out, disp, mode, tag);
}

/// All-ranks driver for in-process transports: every rank posts its face
/// (phase 1, would overlap comms in a real code), then every rank
/// completes (phase 2) -- the same two phases rank_cshift runs for one
/// rank, so both execution models share every line of the exchange.
template <class vobj>
void distributed_cshift(const RankDecomposition& decomp, Communicator& comm,
                        const DistributedField<vobj>& in, DistributedField<vobj>& out,
                        int disp, Compression mode = Compression::kNone) {
  SVELAT_ASSERT_MSG(disp == 1 || disp == -1, "nearest-neighbour shifts only");
  const int tag = kShiftTagBase + decomp.split_dim();
  for (int r = 0; r < decomp.ranks(); ++r)
    detail::post_shift_face(decomp, comm, r, in.locals[static_cast<std::size_t>(r)],
                            disp, mode, tag);
  for (int r = 0; r < decomp.ranks(); ++r)
    detail::complete_shift(decomp, comm, r, in.locals[static_cast<std::size_t>(r)],
                           out.locals[static_cast<std::size_t>(r)], disp, mode, tag);
}

}  // namespace svelat::comms
