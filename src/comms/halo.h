// Halo exchange with optional fp32 / fp16 compression.
//
// Packs the face { x : x_mu = edge } of a fermion (or any) field into a
// contiguous buffer of complex components, optionally compresses it with
// the SVE precision-conversion pipelines, routes it through any
// Communicator transport, and unpacks on the receiving side.  The
// compression mode trades bandwidth for precision exactly as Grid's fp16
// exchange buffers do (paper Sec. V-B).
#pragma once

#include <complex>
#include <cstring>
#include <vector>

#include "comms/communicator.h"
#include "comms/precision.h"
#include "lattice/lattice.h"

namespace svelat::comms {

enum class Compression {
  kNone,  ///< full precision on the wire
  kF32,   ///< double fields compressed to float
  kF16,   ///< compressed to half (Grid's network compression)
};

constexpr const char* compression_name(Compression c) {
  switch (c) {
    case Compression::kNone: return "none";
    case Compression::kF32: return "f32";
    case Compression::kF16: return "f16";
  }
  return "?";
}

// --- helpers ---------------------------------------------------------------
/// Extent of the k-th non-mu dimension of a face.
inline int face_extent(const lattice::Coordinate& dims, int mu, int k) {
  int seen = 0;
  for (int nu = 0; nu < lattice::Nd; ++nu) {
    if (nu == mu) continue;
    if (seen == k) return dims[nu];
    ++seen;
  }
  SVELAT_ASSERT(false);
  return 0;
}

/// Build the face coordinate from (a, b, c) along the non-mu dimensions.
inline void face_coor(int mu, int slice, int a, int b, int c, lattice::Coordinate& x) {
  const int abc[3] = {a, b, c};
  int seen = 0;
  for (int nu = 0; nu < lattice::Nd; ++nu) {
    if (nu == mu) {
      x[nu] = slice;
    } else {
      x[nu] = abc[seen++];
    }
  }
}


/// Index of a site within its face's pack order: the position pack_face /
/// unpack_face assign to the site whose non-mu coordinates are x's.  Lets
/// consumers address individual ghost sites of a received face (the
/// distributed operator's boundary sweep) without materializing a shifted
/// field.
inline std::size_t face_site_index(const lattice::Coordinate& dims, int mu,
                                   const lattice::Coordinate& x) {
  std::size_t idx = 0;
  for (int nu = 0; nu < lattice::Nd; ++nu) {
    if (nu == mu) continue;
    idx = idx * static_cast<std::size_t>(dims[nu]) + static_cast<std::size_t>(x[nu]);
  }
  return idx;
}

/// Append one site object to a wire buffer: its complex components as flat
/// (real, imag) doubles, the per-site encoding of every face.
template <class sobj>
void pack_site(std::vector<double>& buf, const sobj& s) {
  using C = tensor::scalar_element_t<sobj>;
  constexpr std::size_t ncomp = sizeof(sobj) / sizeof(C);
  const C* comp = reinterpret_cast<const C*>(&s);
  for (std::size_t k = 0; k < ncomp; ++k) {
    buf.push_back(static_cast<double>(comp[k].real()));
    buf.push_back(static_cast<double>(comp[k].imag()));
  }
}

/// The site objects of a buffer of pack_site encodings, in buffer order.
template <class sobj>
std::vector<sobj> unpack_sites(const std::vector<double>& buf) {
  using C = tensor::scalar_element_t<sobj>;
  using R = typename C::value_type;
  constexpr std::size_t ncomp = sizeof(sobj) / sizeof(C);
  SVELAT_ASSERT(buf.size() % (2 * ncomp) == 0);
  std::vector<sobj> sites(buf.size() / (2 * ncomp));
  std::size_t idx = 0;
  for (auto& s : sites) {
    C* comp = reinterpret_cast<C*>(&s);
    for (std::size_t k = 0; k < ncomp; ++k) {
      comp[k] = C(static_cast<R>(buf[idx]), static_cast<R>(buf[idx + 1]));
      idx += 2;
    }
  }
  return sites;
}

/// Face of a field: all sites with x[mu] == slice, packed as flat doubles
/// (real, imag per component) in lexicographic face order.
template <class vobj>
std::vector<double> pack_face(const lattice::Lattice<vobj>& f, int mu, int slice) {
  using sobj = typename lattice::Lattice<vobj>::scalar_object;
  using C = tensor::scalar_element_t<sobj>;
  constexpr std::size_t ncomp = sizeof(sobj) / sizeof(C);
  const lattice::GridCartesian* g = f.grid();
  const lattice::Coordinate dims = g->fdimensions();

  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(lattice::volume(dims)) / dims[mu] * ncomp * 2);
  lattice::Coordinate x;
  // Iterate the 3d face in lexicographic order of the non-mu coordinates.
  for (int a = 0; a < face_extent(dims, mu, 0); ++a)
    for (int b = 0; b < face_extent(dims, mu, 1); ++b)
      for (int c = 0; c < face_extent(dims, mu, 2); ++c) {
        face_coor(mu, slice, a, b, c, x);
        pack_site(buf, f.peek(x));
      }
  return buf;
}

/// Scalar site objects of the face, in the same order pack_face uses.
template <class vobj>
std::vector<typename lattice::Lattice<vobj>::scalar_object> unpack_face(
    const std::vector<double>& buf, const lattice::Lattice<vobj>&) {
  return unpack_sites<typename lattice::Lattice<vobj>::scalar_object>(buf);
}

/// Compress a double buffer for the wire.
std::vector<std::uint8_t> compress(const std::vector<double>& data, Compression mode);

/// Inverse of compress().
std::vector<double> decompress(const std::vector<std::uint8_t>& wire, std::size_t n,
                               Compression mode);

/// One full exchange: pack the face, compress, send rank->rank through the
/// communicator, receive, decompress.  Returns the received samples and
/// reports wire bytes via *wire_bytes.
template <class vobj>
std::vector<double> exchange_face(Communicator& comm, const lattice::Lattice<vobj>& f,
                                  int mu, int slice, Compression mode, int from_rank,
                                  int to_rank, std::size_t* wire_bytes = nullptr) {
  const std::vector<double> packed = pack_face(f, mu, slice);
  std::vector<std::uint8_t> wire = compress(packed, mode);
  if (wire_bytes != nullptr) *wire_bytes = wire.size();
  comm.send(from_rank, to_rank, /*tag=*/mu, std::move(wire));
  const std::vector<std::uint8_t> received = comm.recv(to_rank, from_rank, /*tag=*/mu);
  return decompress(received, packed.size(), mode);
}

}  // namespace svelat::comms
