// Distributed halo exchange across real OS processes.
//
// A launcher forks one process per rank, wired as a full mesh of
// Unix-domain sockets (comms/socket.h).  Rank 0 builds a global lattice
// and scatters it over the wire; every rank then runs halo-exchanged
// nearest-neighbour shifts (both directions, optionally fp16/fp32
// compressed) and the distributed Wilson hopping term
// (comms::DistributedWilsonDirac::dhop); the results are gathered back to
// rank 0 and checked against the single-rank Cshift / dhop_via_cshift.
// Uncompressed results must match bitwise; a compressed wire is held to
// the format's epsilon at the rank boundary.
//
// Build & run:
//   cmake --build build --target distributed_cshift
//   ./build/examples/distributed_cshift [ranks=2] [L=4] [T=8] [wire=none|f32|f16]
//                                       [--log-dir=DIR]
//
// Exit code 0 iff every rank process exited cleanly and all checks passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "comms/distributed.h"
#include "comms/distributed_wilson.h"
#include "comms/socket.h"
#include "core/svelat.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;
using Field = qcd::LatticeFermion<S>;

constexpr unsigned kVL = 256;
constexpr int kSplitDim = 3;  // distribute the time extent
constexpr int kSeed = 2018;

lattice::Coordinate pick_layout(const lattice::Coordinate& dims) {
  return comms::split_simd_layout(dims, kSplitDim, S::Nsimd());
}

double rel_error(const Field& got, const Field& expect) {
  return std::sqrt(norm2(got - expect) / norm2(expect));
}

/// Everything one rank process does.  Deterministic fills mean every rank
/// can rebuild the reference global fields locally for the final check,
/// but the data that is *operated on* travels through the wire collectives
/// (scatter_root / gather_root), exactly as a production job would route
/// it.
int rank_body(int rank, comms::SocketCommunicator& comm,
              const lattice::Coordinate& dims, comms::Compression mode) {
  sve::set_vector_length(kVL);
  const lattice::Coordinate layout = pick_layout(dims);
  const comms::RankDecomposition decomp(dims, kSplitDim, comm.size(), layout);
  lattice::GridCartesian global_grid(dims, layout);

  // --- rank 0 builds the global problem; the wire distributes it --------
  // Only rank 0 ever holds global-volume fields: every other rank's
  // footprint is its 1/N sub-lattice plus halo faces.
  std::unique_ptr<Field> global_psi;
  std::unique_ptr<qcd::GaugeField<S>> global_gauge;
  if (rank == 0) {
    global_psi = std::make_unique<Field>(&global_grid);
    gaussian_fill(SiteRNG(kSeed), *global_psi);
    global_gauge = std::make_unique<qcd::GaugeField<S>>(&global_grid);
    qcd::random_gauge(SiteRNG(kSeed + 1), *global_gauge);
    std::printf("rank 0: scattering %lld sites over %d ranks (%lld sites each)\n",
                static_cast<long long>(global_grid.gsites()), comm.size(),
                static_cast<long long>(decomp.grid(0)->gsites()));
  }
  Field psi(decomp.grid(rank));
  comms::scatter_root(decomp, comm, rank, global_psi.get(), psi);
  qcd::GaugeField<S> gauge(decomp.grid(rank));
  for (int mu = 0; mu < lattice::Nd; ++mu)
    comms::scatter_root(decomp, comm, rank,
                        rank == 0 ? &global_gauge->U[static_cast<std::size_t>(mu)]
                                  : nullptr,
                        gauge.U[static_cast<std::size_t>(mu)]);

  int failures = 0;

  // --- halo-exchanged shifts, both directions ---------------------------
  for (const int disp : {+1, -1}) {
    Field shifted(decomp.grid(rank));
    comm.reset_counters();
    comms::rank_cshift(decomp, comm, rank, psi, shifted, disp, mode);
    const std::size_t face_bytes = comm.bytes_sent();

    std::unique_ptr<Field> gathered;
    if (rank == 0) {
      gathered = std::make_unique<Field>(&global_grid);
      gathered->set_zero();
    }
    comms::gather_root(decomp, comm, rank, shifted, gathered.get());
    if (rank == 0) {
      const Field expect = lattice::Cshift(*global_psi, kSplitDim, disp);
      const double rel = rel_error(*gathered, expect);
      const bool ok = (mode == comms::Compression::kNone) ? rel == 0.0
                                                          : rel < 0x1.0p-10;
      std::printf("cshift disp=%+d  wire=%-4s  face bytes/rank=%zu  rel err=%.3e  %s\n",
                  disp, comms::compression_name(mode), face_bytes, rel,
                  ok ? "OK" : "MISMATCH");
      if (!ok) ++failures;
    }
  }

  // --- distributed Wilson hopping term (always full precision) ----------
  // The production operator: construction posts the one gauge face, and
  // dhop runs one sweep per parity, each posting both half faces of its
  // input and sweeping the interior while they are in flight.  Bytes and
  // time cover construction plus one dhop.
  Field dpsi(decomp.grid(rank));
  comm.reset_counters();
  StopWatch sw;
  const comms::DistributedWilsonDirac<S> op(decomp, comm, rank, gauge, /*mass=*/0.0);
  op.dhop(psi, dpsi);
  const double dhop_ms = sw.milliseconds();
  const std::size_t dhop_bytes = comm.bytes_sent();

  std::unique_ptr<Field> dhop_gathered;
  if (rank == 0) {
    dhop_gathered = std::make_unique<Field>(&global_grid);
    dhop_gathered->set_zero();
  }
  comms::gather_root(decomp, comm, rank, dpsi, dhop_gathered.get());
  if (rank == 0) {
    Field expect(&global_grid);
    qcd::dhop_via_cshift(*global_gauge, *global_psi, expect);
    const double diff = norm2(*dhop_gathered - expect);
    std::printf("dhop  %d ranks    halo bytes/rank=%zu  %.1f ms/rank  %s\n",
                comm.size(), dhop_bytes, dhop_ms,
                diff == 0.0 ? "bitwise OK" : "MISMATCH");
    if (diff != 0.0) ++failures;
  } else {
    std::printf("rank %d: dhop halo bytes=%zu (%.1f ms)\n", rank, dhop_bytes,
                dhop_ms);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = 2;
  int L = 4;
  int T = 8;
  comms::Compression mode = comms::Compression::kNone;
  comms::LaunchOptions options;

  int pos = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--log-dir=", 0) == 0) {
      options.log_dir = arg.substr(10);
    } else if (arg == "none" || arg == "f32" || arg == "f16") {
      mode = arg == "none" ? comms::Compression::kNone
             : arg == "f32" ? comms::Compression::kF32
                            : comms::Compression::kF16;
    } else {
      const int v = std::atoi(arg.c_str());
      if (v <= 0) {
        std::fprintf(stderr,
                     "usage: %s [ranks] [L] [T] [none|f32|f16] [--log-dir=DIR]\n",
                     argv[0]);
        return 2;
      }
      if (pos == 0) ranks = v;
      else if (pos == 1) L = v;
      else if (pos == 2) T = v;
      ++pos;
    }
  }
  const lattice::Coordinate dims{L, L, L, T};
  if (T % ranks != 0) {
    std::fprintf(stderr, "T=%d must divide evenly over %d ranks\n", T, ranks);
    return 2;
  }

  std::printf("distributed_cshift: %d rank processes, %dx%dx%dx%d lattice, %s wire\n",
              ranks, L, L, L, T, comms::compression_name(mode));

  const comms::LaunchReport report = comms::run_ranks(
      ranks,
      [&](int rank, comms::SocketCommunicator& comm) {
        return rank_body(rank, comm, dims, mode);
      },
      options);

  std::printf("%s\n", report.describe().c_str());
  std::printf("%s\n", report.ok ? "PASS" : "FAIL");
  return report.ok ? 0 : 1;
}
