// MeasurementJob: the unit of work of the measurement service.
//
// A job names one propagator-column solve on one stored gauge
// configuration: a point source (position, spin, colour), a quark mass
// and the solver parameters to run with.  Twelve jobs with the same
// source point and mass make up a full point-to-all propagator -- the
// column is the scheduling granule so a queue of jobs spreads evenly
// over worker ranks.
//
// Jobs are serialized as fixed-size versioned records with the io/
// little-endian helpers; the CRC that protects a record on disk is
// applied by the queue framing (service/queue.h) and the results file
// (service/scheduler.h), not here.  Record layout (version 1, 72 bytes):
//
//   offset  size  field
//        0     4  magic "SVJB"
//        4     4  version (1)
//        8     8  job_id
//       16     4  config_id
//       20    16  source coordinate (4 x u32)
//       36     4  spin       (0 .. Ns-1)
//       40     4  colour     (0 .. Nc-1)
//       44     8  mass       (binary64)
//       52     4  algorithm      (solver::Algorithm)
//       56     4  preconditioner (solver::Preconditioner)
//       60     8  tolerance  (binary64)
//       68     4  max_iterations
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "io/format.h"
#include "lattice/coordinates.h"
#include "qcd/types.h"
#include "solver/result.h"

namespace svelat::service {

inline constexpr std::uint32_t kJobMagic = 0x424A5653u;  // "SVJB" on disk
inline constexpr std::uint32_t kJobVersion = 1;
inline constexpr std::size_t kJobRecordBytes = 72;

struct MeasurementJob {
  std::uint64_t job_id = 0;
  std::uint32_t config_id = 0;  ///< which stored gauge configuration
  lattice::Coordinate source{0, 0, 0, 0};
  int spin = 0;
  int colour = 0;
  double mass = 0.0;
  solver::Algorithm algorithm = solver::Algorithm::kCG;
  solver::Preconditioner preconditioner = solver::Preconditioner::kSchurEvenOdd;
  double tolerance = 1e-8;
  int max_iterations = 1000;

  solver::SolverParams solver_params() const {
    return solver::SolverParams{}
        .with_algorithm(algorithm)
        .with_preconditioner(preconditioner)
        .with_tolerance(tolerance)
        .with_max_iterations(max_iterations);
  }

  bool operator==(const MeasurementJob&) const = default;
};

/// Append the 72-byte version-1 record for `job` to `out`.
inline void encode_job(std::vector<std::uint8_t>& out, const MeasurementJob& job) {
  io::put_u32(out, kJobMagic);
  io::put_u32(out, kJobVersion);
  io::put_u64(out, job.job_id);
  io::put_u32(out, job.config_id);
  for (int d = 0; d < lattice::Nd; ++d)
    io::put_u32(out, static_cast<std::uint32_t>(job.source[d]));
  io::put_u32(out, static_cast<std::uint32_t>(job.spin));
  io::put_u32(out, static_cast<std::uint32_t>(job.colour));
  io::put_f64(out, job.mass);
  io::put_u32(out, static_cast<std::uint32_t>(job.algorithm));
  io::put_u32(out, static_cast<std::uint32_t>(job.preconditioner));
  io::put_f64(out, job.tolerance);
  io::put_u32(out, static_cast<std::uint32_t>(job.max_iterations));
}

inline std::vector<std::uint8_t> encode_job(const MeasurementJob& job) {
  std::vector<std::uint8_t> out;
  out.reserve(kJobRecordBytes);
  encode_job(out, job);
  return out;
}

/// Decode one job record at `off` (advancing it), validating magic,
/// version, every enum-like field, a finite mass and tolerance, and an
/// iteration cap that fits an int.  Throws io::IoError naming the defect
/// -- kBadMagic / kBadVersion / kTruncated / kCorruptPayload.
inline MeasurementJob decode_job(const std::vector<std::uint8_t>& in,
                                 std::size_t& off) {
  using io::IoError;
  using io::IoErrorCode;
  const auto code = IoErrorCode::kTruncated;
  const std::uint32_t magic = io::get_u32(in, off, code, "job record magic");
  if (magic != kJobMagic)
    throw IoError(IoErrorCode::kBadMagic, "job record magic mismatch (not \"SVJB\")");
  const std::uint32_t version = io::get_u32(in, off, code, "job record version");
  if (version != kJobVersion)
    throw IoError(IoErrorCode::kBadVersion,
                  "job record version " + std::to_string(version) +
                      " (reader knows version " + std::to_string(kJobVersion) + ")");
  MeasurementJob job;
  job.job_id = io::get_u64(in, off, code, "job id");
  job.config_id = io::get_u32(in, off, code, "job config id");
  for (int d = 0; d < lattice::Nd; ++d)
    job.source[d] = static_cast<int>(io::get_u32(in, off, code, "job source"));
  job.spin = static_cast<int>(io::get_u32(in, off, code, "job spin"));
  job.colour = static_cast<int>(io::get_u32(in, off, code, "job colour"));
  job.mass = io::get_f64(in, off, code, "job mass");
  const std::uint32_t alg = io::get_u32(in, off, code, "job algorithm");
  const std::uint32_t pre = io::get_u32(in, off, code, "job preconditioner");
  job.tolerance = io::get_f64(in, off, code, "job tolerance");
  const std::uint32_t iters = io::get_u32(in, off, code, "job iterations");
  // A source component above INT32_MAX converted to a negative int.
  const bool source_ok = std::ranges::none_of(job.source, [](int x) { return x < 0; });
  if (!source_ok || alg > static_cast<std::uint32_t>(solver::Algorithm::kMixedCG) ||
      pre > static_cast<std::uint32_t>(solver::Preconditioner::kSchurEvenOdd) ||
      job.spin < 0 || job.spin >= qcd::Ns || job.colour < 0 || job.colour >= qcd::Nc)
    throw IoError(IoErrorCode::kCorruptPayload,
                  "job record " + std::to_string(job.job_id) +
                      " holds an out-of-range enum or source component");
  // A NaN mass aborts the worker inside the solver, a NaN tolerance runs
  // every solve to its cap, an infinite one "converges" at once, and a cap
  // above INT32_MAX converts to a negative int that runs no iteration.
  if (!std::isfinite(job.mass) || !std::isfinite(job.tolerance) ||
      iters > static_cast<std::uint32_t>(std::numeric_limits<int>::max()))
    throw IoError(IoErrorCode::kCorruptPayload,
                  "job record " + std::to_string(job.job_id) +
                      " holds a non-finite mass or tolerance, or an iteration "
                      "cap above INT32_MAX");
  job.max_iterations = static_cast<int>(iters);
  job.algorithm = static_cast<solver::Algorithm>(alg);
  job.preconditioner = static_cast<solver::Preconditioner>(pre);
  // The solver aborts on an unsupported combination: the job would kill
  // every worker it is requeued onto.
  if (!solver::supported(job.algorithm, job.preconditioner))
    throw IoError(IoErrorCode::kCorruptPayload,
                  "job record " + std::to_string(job.job_id) + " is " +
                      solver::to_string(job.algorithm) + " x " +
                      solver::to_string(job.preconditioner) + ": kNone runs kCG only");
  return job;
}

inline MeasurementJob decode_job(const std::vector<std::uint8_t>& in) {
  std::size_t off = 0;
  return decode_job(in, off);
}

}  // namespace svelat::service
