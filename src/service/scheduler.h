// Measurement-service scheduler: a job queue fanned over socket ranks.
//
// Rank 0 is the SUPERVISOR.  It owns the persistent JobQueue
// (service/queue.h) and the append-only results file, reads the gauge
// configuration file once and broadcasts its SVGF bytes to every worker,
// then dispatches jobs and collects results until the queue is drained.
// Ranks 1..R-1 are WORKERS: each decodes the gauge into its own grid,
// then loops { receive job -> solve the propagator column -> time-slice
// correlator + wall-clock hop rate -> send JobResult } until it receives
// the empty shutdown payload.
//
// Wire protocol (tags continue the distributed.h ladder, which ends at
// kGatherTag = 901):
//
//   kGaugeTag  700   supervisor -> worker   SVGF file bytes, sent once
//   kJobTag    701   supervisor -> worker   72-byte job record; an EMPTY
//                                           payload means "shut down"
//   kResultTag 702   worker -> supervisor   encoded JobResult record
//
// Scheduling.  The supervisor waits on all its in-flight workers at once
// (Communicator::wait_any) and serves whichever is ready first: on a
// valid result it claims and sends that worker's next job (FIFO), then
// commits the result, so a fast worker never waits for a slow one.
//
// Fault tolerance.  A worker whose stream ends is ready at once, and its
// recv_status verdict (kPeerExited / kTornFrame / kDesync / kIoError) is
// a death: the in-flight job goes back to kPending (attempts += 1) and
// the worker is dropped.  A wait that times out means "still solving".
// Transient injected faults (delays, spurious EOFs) are absorbed by the
// Communicator retry ladder below this layer.  If jobs remain but every
// worker is gone, the supervisor exits nonzero and its launcher
// relaunches it: JobQueue::requeue_claimed() plus recover_results() make
// the restart exactly-once (a result whose job never reached kDone is
// pruned and the job re-runs).
//
// Exactly-once commit order: a received result is APPENDED (fsync'd)
// first, then its queue entry flips to kDone.  A crash between the two
// leaves an orphaned result record that recovery prunes -- the reverse
// order could mark a job done whose result was lost.  A crash after the
// worker's next job was claimed but before the commit leaves two claimed
// jobs, and the restart requeues both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comms/communicator.h"
#include "io/gauge_io.h"
#include "qcd/propagator.h"
#include "service/queue.h"
#include "solver/solver.h"
#include "support/metrics.h"

namespace svelat::service {

inline constexpr int kSupervisorRank = 0;
inline constexpr int kGaugeTag = 700;
inline constexpr int kJobTag = 701;
inline constexpr int kResultTag = 702;

inline constexpr std::uint32_t kResultMagic = 0x524A5653u;  // "SVJR" on disk
inline constexpr std::uint32_t kResultVersion = 2;

/// What a worker sends back per job: convergence outcome, the time-slice
/// correlator of the solved column, and the worker-side wall clock
/// (support/metrics.h).  The wall-clock fields are machine-dependent
/// observability -- nothing gates on them.
struct JobResult {
  std::uint64_t job_id = 0;
  std::uint32_t config_id = 0;
  bool converged = false;
  std::uint32_t iterations = 0;
  double wall_seconds = 0.0;  ///< the solve() facade wall clock
  /// The hop traffic model over the seconds of dhop + dhop_eo_block +
  /// dhop_oe_block combined (the full-lattice and Schur hopping sweeps).
  double dhop_gb_per_sec = 0.0;
  /// C(t) = sum_x |x(x, t)|^2 of the solved column, one entry per slice.
  std::vector<double> correlator;
};

/// Append the framed "SVJR" record for `r` to `out` (layout: magic,
/// version, payload length, payload, CRC-32 over all preceding bytes of
/// the record; spec appendix in docs/FORMAT.md).
void encode_result(std::vector<std::uint8_t>& out, const JobResult& r);
std::vector<std::uint8_t> encode_result(const JobResult& r);

/// Decode one record at `off` (advancing it); throws io::IoError naming
/// the defect class.
JobResult decode_result(const std::vector<std::uint8_t>& in, std::size_t& off);

/// Append one record to the results file with fwrite + fflush + fsync
/// (append-only single-writer file; no rename dance needed).
void append_result(const std::string& path, const JobResult& r);

/// Read and strictly validate a whole results file.
std::vector<JobResult> read_results(const std::string& path);

/// Startup recovery: drop any record whose job is not kDone in `queue`
/// (an orphan from a crash between append and complete) and a torn tail
/// from a crash mid-append, then rewrite the file atomically.  Only a
/// final record that runs past the end of the file (kTruncated), with no
/// complete record after it, is a torn tail: any other defect (a CRC
/// mismatch, a record of another version, a corrupted length field that
/// runs into later records) throws an io::IoError and leaves the file
/// untouched, so a defect inside a complete record never drops it.
/// Returns the number of records pruned.  A missing file is an empty
/// history, not an error.
std::size_t recover_results(const std::string& path, const JobQueue& queue);

struct SchedulerConfig {
  std::string gauge_path;    ///< SVGF configuration the jobs measure on
  std::string queue_path;    ///< persistent JobQueue file (must exist)
  std::string results_path;  ///< append-only JobResult records
  int verbosity = 1;
};

/// The supervisor loop (call on rank kSupervisorRank).  Returns 0 when
/// the queue drained, nonzero when jobs remain but no worker survives
/// (the outer driver's cue to relaunch).  Scalar-agnostic: the gauge
/// field is only ever touched as SVGF bytes here.
int supervisor_loop(comms::Communicator& comm, const SchedulerConfig& cfg);

namespace detail {

/// C(t) = sum_x |x(x, t)|^2 of one fermion field -- the single-column
/// slice of qcd::pion_correlator, delegated to the shared
/// qcd::timeslice_norm2 kernel (one table build per job; jobs are
/// one-column, so there is nothing to amortize the table over here).
template <class S>
std::vector<double> timeslice_norms(const qcd::LatticeFermion<S>& x) {
  const qcd::TimesliceTable table(x.grid());
  return qcd::timeslice_norm2(table, x);
}

}  // namespace detail

/// Run one job against a loaded gauge configuration: solve the named
/// propagator column and package correlator + metrics.  The metrics
/// registry is reset first so the reported rate covers exactly this job.
template <class S>
JobResult measure_job(const qcd::GaugeField<S>& gauge, const MeasurementJob& job) {
  metrics::reset();
  solver::WilsonSolver<S> solver(gauge, job.mass, job.solver_params());
  // One column per job, submitted through the batched facade entry: a
  // width-1 batch runs solve() on its column, so every measurement driver
  // exercises the same multi-RHS API.
  std::vector<qcd::LatticeFermion<S>> src(1, qcd::LatticeFermion<S>(gauge.grid()));
  std::vector<qcd::LatticeFermion<S>> x(1, qcd::LatticeFermion<S>(gauge.grid()));
  qcd::point_source(src[0], job.source, job.spin, job.colour);
  x[0].set_zero();
  const solver::SolverResult res = solver.solve_batched(src, x)[0];

  JobResult out;
  out.job_id = job.job_id;
  out.config_id = job.config_id;
  out.converged = res.converged;
  out.iterations = static_cast<std::uint32_t>(res.iterations);
  out.wall_seconds = res.wall_seconds;
  out.dhop_gb_per_sec = metrics::gb_per_sec({"dhop", "dhop_eo_block", "dhop_oe_block"});
  out.correlator = detail::timeslice_norms(x[0]);
  return out;
}

/// The worker loop (call on ranks != kSupervisorRank).  Blocks for the
/// gauge broadcast, then serves jobs until the empty shutdown payload.
/// kTimeout while waiting is "the supervisor is busy" and the wait
/// continues; any fatal transport status aborts the worker via the
/// throwing comm layer (run_ranks turns that into a per-rank verdict).
template <class S>
int worker_loop(int rank, comms::Communicator& comm) {
  // recv_status already retries transient statuses; looping on kTimeout
  // on top of that makes the wait open-ended (a parked worker may sit
  // idle for many solve-lengths).  A dead supervisor surfaces as
  // kPeerExited, which the throwing recv below converts to CommError.
  const auto patient_recv = [&](int tag) {
    std::vector<std::uint8_t> bytes;
    comms::CommStatus st = comms::CommStatus::kOk;
    do {
      st = comm.recv_status(rank, kSupervisorRank, tag, bytes);
    } while (st == comms::CommStatus::kTimeout);
    if (st != comms::CommStatus::kOk)
      throw comms::CommError(st, "worker " + std::to_string(rank) +
                                     " lost the supervisor (tag " +
                                     std::to_string(tag) + ")");
    return bytes;
  };

  // The gauge arrives as SVGF file bytes: decode into a grid shaped for
  // THIS scalar type (the wire format is SIMD-layout independent).
  const std::vector<std::uint8_t> gauge_bytes = patient_recv(kGaugeTag);
  io::FieldFile file = io::decode_field_file(gauge_bytes);
  lattice::GridCartesian grid(file.header.dims,
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  io::gauge_from_file(file, gauge);

  while (true) {
    const std::vector<std::uint8_t> job_bytes = patient_recv(kJobTag);
    if (job_bytes.empty()) return 0;  // shutdown
    const MeasurementJob job = decode_job(job_bytes);
    const JobResult result = measure_job(gauge, job);
    comm.send(rank, kSupervisorRank, kResultTag, encode_result(result));
  }
}

/// Rank dispatch for run_ranks bodies: supervisor on rank 0, workers
/// elsewhere.  `comm` may be the rank's raw SocketCommunicator or a
/// FaultyCommunicator wrapped around it (the soak/crash tests).
template <class S>
int scheduler_rank_body(int rank, comms::Communicator& comm,
                        const SchedulerConfig& cfg) {
  return rank == kSupervisorRank ? supervisor_loop(comm, cfg)
                                 : worker_loop<S>(rank, comm);
}

}  // namespace svelat::service
