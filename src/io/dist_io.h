// Gauge I/O over a RankDecomposition (normative spec: docs/FORMAT.md).
//
// A decomposed configuration reaches disk as ONE plain SVGF file with the
// global dims, through rank 0: save_gauge_root gathers the link fields to
// rank 0 (comms::gather_root), which writes the file; load_gauge_root
// reads it on rank 0 and scatters the sub-lattices (comms::scatter_root).
// The file is byte-identical to a single-rank save_gauge of the global
// field, so load_gauge reads it too, at any rank count.
#pragma once

#include <string>
#include <vector>

#include "comms/distributed.h"
#include "io/gauge_io.h"

namespace svelat::io {

/// Gather the link fields to rank 0 and write ONE SVGF file with the
/// global dims.  `meta` is read on rank 0 only.
template <class S>
void save_gauge_root(const std::string& path, const comms::RankDecomposition& decomp,
                     comms::Communicator& comm, int rank,
                     const qcd::GaugeField<S>& local,
                     const std::vector<std::uint8_t>& meta = {}) {
  if (rank == 0) {
    lattice::GridCartesian global_grid(decomp.global_dims(),
                                       local.grid()->simd_layout());
    qcd::GaugeField<S> global(&global_grid);
    for (int mu = 0; mu < lattice::Nd; ++mu)
      comms::gather_root(decomp, comm, rank, local.U[mu], &global.U[mu]);
    save_gauge(path, global, meta);
  } else {
    for (int mu = 0; mu < lattice::Nd; ++mu)
      comms::gather_root(decomp, comm, rank, local.U[mu],
                         static_cast<lattice::Lattice<qcd::ColourMatrix<S>>*>(nullptr));
  }
}

/// Rank 0 reads ONE SVGF file with the global dims and scatters the
/// sub-lattices.  Returns the metadata blob on rank 0 (empty elsewhere).
template <class S>
std::vector<std::uint8_t> load_gauge_root(const std::string& path,
                                          const comms::RankDecomposition& decomp,
                                          comms::Communicator& comm, int rank,
                                          qcd::GaugeField<S>& local) {
  std::vector<std::uint8_t> meta;
  if (rank == 0) {
    lattice::GridCartesian global_grid(decomp.global_dims(),
                                       local.grid()->simd_layout());
    qcd::GaugeField<S> global(&global_grid);
    meta = load_gauge(path, global);
    for (int mu = 0; mu < lattice::Nd; ++mu)
      comms::scatter_root(decomp, comm, rank, &global.U[mu], local.U[mu]);
  } else {
    using Links = lattice::Lattice<qcd::ColourMatrix<S>>;
    for (int mu = 0; mu < lattice::Nd; ++mu)
      comms::scatter_root(decomp, comm, rank, static_cast<const Links*>(nullptr),
                          local.U[mu]);
  }
  return meta;
}

}  // namespace svelat::io
