// Distributed gauge I/O over a RankDecomposition (normative spec:
// docs/FORMAT.md).
//
// Two write paths, mirroring Qlattice's field-serial-io / field-dist-io
// split:
//
//  - save_gauge_root / load_gauge_root: ONE file.  The link fields are
//    gathered to rank 0 (comms::gather_root), which writes a plain SVGF
//    file; loading reads on rank 0 and scatters (comms::scatter_root).
//    Simple, portable, serialized through one process.
//
//  - save_gauge_distributed / load_gauge_distributed: one SVGF file PER
//    RANK (its sub-lattice, rank-local dims in the header) plus a
//    manifest "SVGM" file written by rank 0 that pins the global dims,
//    the decomposition and every rank file's whole-file CRC-32.  Writes
//    scale with ranks; the manifest makes a directory self-describing
//    and detects renamed, swapped or regenerated rank files.  Loading
//    needs no communicator: every rank validates the manifest and reads
//    its own file.
//
// Per-rank file names inside the directory are fixed: "rank<r>.svgf" and
// "manifest.svgm".
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "comms/distributed.h"
#include "io/crc32.h"
#include "io/gauge_io.h"

namespace svelat::io {

/// Wire tags of the distributed writer (stay clear of comms'
/// kScatterTag/kGatherTag block): per-rank file CRC reports to rank 0,
/// and the manifest-ready token of manifest_barrier.
inline constexpr int kManifestTag = 902;
inline constexpr int kManifestReadyTag = 903;

inline std::string rank_file_name(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".svgf";
}
inline std::string manifest_file_name(const std::string& dir) {
  return dir + "/manifest.svgm";
}

// --- manifest ---------------------------------------------------------------

struct RankFileEntry {
  std::uint64_t file_bytes = 0;
  std::uint32_t file_crc = 0;  ///< CRC-32 of the entire rank file
};

struct Manifest {
  lattice::Coordinate global_dims{0, 0, 0, 0};
  std::uint32_t split_dim = 0;
  std::vector<RankFileEntry> ranks;
};

inline std::vector<std::uint8_t> encode_manifest(const Manifest& m) {
  std::vector<std::uint8_t> out;
  put_u32(out, kManifestMagic);
  put_u32(out, kFormatVersion);
  for (int mu = 0; mu < lattice::Nd; ++mu)
    put_u32(out, static_cast<std::uint32_t>(m.global_dims[mu]));
  put_u32(out, m.split_dim);
  put_u32(out, static_cast<std::uint32_t>(m.ranks.size()));
  put_u32(out, crc32(out.data(), out.size()));
  std::vector<std::uint8_t> table;
  for (const RankFileEntry& e : m.ranks) {
    put_u64(table, e.file_bytes);
    put_u32(table, e.file_crc);
  }
  out.insert(out.end(), table.begin(), table.end());
  put_u32(out, crc32(table.data(), table.size()));
  return out;
}

inline Manifest decode_manifest(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  const std::uint32_t magic =
      get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest ends inside the header");
  if (magic != kManifestMagic)
    throw IoError(IoErrorCode::kBadManifest,
                  "not a svelat manifest (magic mismatch, expected \"SVGM\")");
  const std::uint32_t version =
      get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest version");
  if (version != kFormatVersion)
    throw IoError(IoErrorCode::kBadVersion,
                  "manifest is format version " + std::to_string(version) +
                      ", this reader understands version " +
                      std::to_string(kFormatVersion) + " only");
  Manifest m;
  for (int mu = 0; mu < lattice::Nd; ++mu)
    m.global_dims[mu] = static_cast<int>(
        get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest dims"));
  m.split_dim = get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest split_dim");
  const std::uint32_t nranks =
      get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest nranks");
  const std::uint32_t stored_crc =
      get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest header crc");
  const std::uint32_t header_crc = crc32(bytes.data(), off - 4);
  if (stored_crc != header_crc)
    throw IoError(IoErrorCode::kBadManifest,
                  "manifest header CRC-32 mismatch (a manifest byte was altered)");
  // Bound the count by the bytes before allocating: each entry is 12
  // bytes, and the table's CRC-32 follows it.
  if (bytes.size() - off < 12 * static_cast<std::size_t>(nranks) + 4)
    throw IoError(IoErrorCode::kBadManifest,
                  "manifest rank table runs past the end of the file");
  const std::size_t table_off = off;
  m.ranks.resize(nranks);
  for (RankFileEntry& e : m.ranks) {
    e.file_bytes = get_u64(bytes, off, IoErrorCode::kBadManifest, "manifest table");
    e.file_crc = get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest table");
  }
  const std::uint32_t stored_table =
      get_u32(bytes, off, IoErrorCode::kBadManifest, "manifest table crc");
  const std::uint32_t table_crc =
      crc32(bytes.data() + table_off, off - 4 - table_off);
  if (stored_table != table_crc)
    throw IoError(IoErrorCode::kBadManifest,
                  "manifest table CRC-32 mismatch (a manifest byte was altered)");
  if (off != bytes.size())
    throw IoError(IoErrorCode::kBadManifest,
                  "manifest has trailing bytes beyond the format");
  return m;
}

/// Manifest-vs-decomposition consistency (common to save and load).
inline void check_manifest_matches(const Manifest& m,
                                   const comms::RankDecomposition& decomp) {
  if (m.global_dims != decomp.global_dims() ||
      static_cast<int>(m.split_dim) != decomp.split_dim() ||
      static_cast<int>(m.ranks.size()) != decomp.ranks())
    throw IoError(IoErrorCode::kMismatch,
                  "manifest describes a " + lattice::to_string(m.global_dims) +
                      " lattice split along dim " + std::to_string(m.split_dim) +
                      " over " + std::to_string(m.ranks.size()) +
                      " ranks; the decomposition wants " +
                      lattice::to_string(decomp.global_dims()) + " along dim " +
                      std::to_string(decomp.split_dim()) + " over " +
                      std::to_string(decomp.ranks()) + " ranks");
}

// --- per-rank distributed write / read --------------------------------------

/// Every rank writes `<dir>/rank<r>.svgf` (its sub-lattice, with `meta`
/// attached on every rank), ships the file's CRC to rank 0, and rank 0
/// writes `<dir>/manifest.svgm`.  The local field must live on
/// decomp.grid(rank).
template <class S>
void save_gauge_distributed(const std::string& dir,
                            const comms::RankDecomposition& decomp,
                            comms::Communicator& comm, int rank,
                            const qcd::GaugeField<S>& local,
                            const std::vector<std::uint8_t>& meta = {}) {
  SVELAT_ASSERT_MSG(local.grid()->fdimensions() == decomp.local_dims(),
                    "local field does not live on the rank-local grid");
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> bytes = encode_gauge(local, meta);
  write_file_bytes(rank_file_name(dir, rank), bytes);

  RankFileEntry mine;
  mine.file_bytes = bytes.size();
  mine.file_crc = crc32(bytes.data(), bytes.size());
  if (rank == 0) {
    Manifest m;
    m.global_dims = decomp.global_dims();
    m.split_dim = static_cast<std::uint32_t>(decomp.split_dim());
    m.ranks.resize(static_cast<std::size_t>(decomp.ranks()));
    m.ranks[0] = mine;
    for (int r = 1; r < decomp.ranks(); ++r) {
      const std::vector<std::uint8_t> wire = comm.recv(0, r, kManifestTag);
      std::size_t off = 0;
      RankFileEntry e;
      e.file_bytes = get_u64(wire, off, IoErrorCode::kBadManifest, "crc report");
      e.file_crc = get_u32(wire, off, IoErrorCode::kBadManifest, "crc report");
      m.ranks[static_cast<std::size_t>(r)] = e;
    }
    write_file_bytes(manifest_file_name(dir), encode_manifest(m));
  } else {
    std::vector<std::uint8_t> wire;
    put_u64(wire, mine.file_bytes);
    put_u32(wire, mine.file_crc);
    comm.send(rank, 0, kManifestTag, std::move(wire));
  }
}

/// Publish the manifest to concurrently running rank processes: rank 0
/// (whose save_gauge_distributed returns only after the manifest is on
/// disk) posts a token to every other rank, which waits for it.  Call
/// between a distributed save and a subsequent read of the directory by
/// ranks != 0.  In-process drivers that serialize the rank calls (rank 0
/// last) do not need it.
///
/// The wait is BOUNDED: the token recv is limited by the transport's own
/// timeout times the retry policy's attempts.  When rank 0 never
/// publishes (it crashed, or stalled past the bound), the waiting rank
/// gets IoError(kBarrierTimeout) naming the transport's verdict instead
/// of hanging forever.
inline void manifest_barrier(comms::Communicator& comm, int rank) {
  if (rank == 0) {
    for (int r = 1; r < comm.size(); ++r) comm.send(0, r, kManifestReadyTag, {});
  } else {
    std::vector<std::uint8_t> token;
    const comms::CommStatus st = comm.recv_status(rank, 0, kManifestReadyTag, token);
    if (st != comms::CommStatus::kOk)
      throw IoError(IoErrorCode::kBarrierTimeout,
                    "rank " + std::to_string(rank) +
                        " waited for rank 0 to publish the manifest, but the ready "
                        "token never arrived (" +
                        comms::comm_status_name(st) + ")");
  }
}

/// Load rank `rank`'s sub-lattice from a distributed directory.  Needs no
/// communicator: the manifest is validated independently on every rank.
/// Returns the rank file's metadata blob.
template <class S>
std::vector<std::uint8_t> load_gauge_distributed(const std::string& dir,
                                                 const comms::RankDecomposition& decomp,
                                                 int rank, qcd::GaugeField<S>& local) {
  SVELAT_ASSERT_MSG(local.grid()->fdimensions() == decomp.local_dims(),
                    "local field does not live on the rank-local grid");
  const Manifest m = decode_manifest(read_file_bytes(manifest_file_name(dir)));
  check_manifest_matches(m, decomp);

  const std::vector<std::uint8_t> bytes = read_file_bytes(rank_file_name(dir, rank));
  const RankFileEntry& expect = m.ranks[static_cast<std::size_t>(rank)];
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  if (bytes.size() != expect.file_bytes || crc != expect.file_crc)
    throw IoError(IoErrorCode::kRankFileMismatch,
                  rank_file_name(dir, rank) + " does not match the manifest (" +
                      std::to_string(bytes.size()) + " bytes vs " +
                      std::to_string(expect.file_bytes) +
                      " expected; was a rank file replaced or regenerated without "
                      "rewriting the manifest?)");
  FieldFile file = decode_field_file(bytes);
  gauge_from_file(file, local);
  return std::move(file.meta);
}

// --- rank-0 single-file write / read ----------------------------------------

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
