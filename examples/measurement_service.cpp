// The measurement service end to end: a persistent job queue fanned over
// real socket-rank workers, with crash injection and exactly-once
// verification (service layer in src/service/, wall-clock metrics in
// src/support/metrics.h).
//
// Phases:
//
//   1. SETUP      build a random gauge configuration, save it as SVGF,
//      and enqueue N propagator-column jobs into a persistent JobQueue.
//   2. REFERENCE  run every job uninterrupted in this process (gauge
//      reloaded through the same SVGF path the workers use) and print
//      metrics::report() -- the Schur hop region must show a nonzero GB/s
//      and the solver-linalg region nonzero seconds.
//   3. SERVICE    run_ranks: rank 0 supervises the queue, ranks 1..R-1
//      serve jobs.  An armed --crash-rank knob SIGKILLs that rank at its
//      --crash-op'th send on the FIRST launch only; the supervisor
//      requeues the dead worker's job onto a survivor, and if the
//      supervisor itself died the relaunch recovers from the queue +
//      results files (claimed jobs requeued, orphaned results pruned).
//      Seeded transients (--fault-seed) must be absorbed by the retry
//      ladder with no relaunch.
//   4. VERIFY     every job completed EXACTLY once (queue all-done, one
//      result record per job id), every correlator is bitwise identical
//      to the reference run's, and every worker reported a nonzero dhop
//      rate.
//
// Exit code 0 iff every check passed AND, when a crash knob was armed,
// at least one failure was actually observed and recovered from.
//
// Usage: ./examples/measurement_service [ranks=3] [L=4] [T=8] [njobs=4]
//            [dir=service.tmp]
//            [--crash-rank=R]  SIGKILL rank R at its --crash-op'th send
//                              (first launch only; rank 0 = supervisor)
//            [--crash-op=K]    operation index for --crash-rank (default 1:
//                              a worker dies at its second result send,
//                              i.e. mid-job)
//            [--fault-seed=S]  seeded transient delays/spurious EOFs on
//                              every rank, absorbed by retries
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "comms/faults.h"
#include "comms/socket.h"
#include "core/svelat.h"
#include "io/io.h"
#include "service/scheduler.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;

std::string make_log_dir(const std::string& dir, int attempt) {
  const std::string d = dir + "/logs/attempt" + std::to_string(attempt);
  std::filesystem::create_directories(d);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  int positional[4] = {3, 4, 8, 4};
  std::string dir = "service.tmp";
  int crash_rank = -1;
  long long crash_op = 1;
  std::uint64_t fault_seed = 0;
  int npos = 0;
  bool usage_error = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--crash-rank=", 0) == 0)
      crash_rank = std::atoi(arg.c_str() + 13);
    else if (arg.rfind("--crash-op=", 0) == 0)
      crash_op = std::atoll(arg.c_str() + 11);
    else if (arg.rfind("--fault-seed=", 0) == 0)
      fault_seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 13));
    else if (arg.rfind("--", 0) == 0)
      usage_error = true;
    else if (npos < 4)
      positional[npos++] = std::atoi(arg.c_str());
    else if (npos++ == 4)
      dir = arg;
    else
      usage_error = true;
  }
  const int ranks = positional[0];
  const int L = positional[1];
  const int T = positional[2];
  const int njobs = positional[3];
  if (usage_error || ranks < 2 || ranks > 8 || njobs < 1 || crash_rank >= ranks) {
    std::fprintf(stderr,
                 "usage: %s [ranks>=2] [L] [T] [njobs] [dir] [--crash-rank=R] "
                 "[--crash-op=K] [--fault-seed=S]\n",
                 argv[0]);
    return 2;
  }

  sve::set_vector_length(256);
  const lattice::Coordinate dims{L, L, L, T};
  lattice::GridCartesian grid(
      dims, lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string gauge_path = dir + "/cfg0.svgf";
  const std::string queue_path = dir + "/jobs.svjq";
  const std::string results_path = dir + "/results.svjr";

  // --- phase 1: configuration + job queue -----------------------------------
  std::printf("[setup] %dx%dx%dx%d lattice, %d jobs over %d worker rank(s)\n", L, L,
              L, T, njobs, ranks - 1);
  {
    qcd::GaugeField<S> gauge(&grid);
    qcd::random_gauge(SiteRNG(2018), gauge);
    io::save_gauge(gauge_path, gauge);
  }

  std::vector<service::MeasurementJob> jobs;
  service::JobQueue queue(queue_path);
  for (int n = 0; n < njobs; ++n) {
    service::MeasurementJob job;
    job.job_id = static_cast<std::uint64_t>(n + 1);
    job.config_id = 0;
    job.source = {0, 0, 0, 0};
    job.spin = n % qcd::Ns;
    job.colour = (n / qcd::Ns) % qcd::Nc;
    job.mass = 0.4;
    job.tolerance = 1e-8;
    job.max_iterations = 600;
    jobs.push_back(job);
    queue.enqueue(job);
  }

  // --- phase 2: uninterrupted reference run + metrics report ----------------
  // The gauge goes through the same SVGF decode the workers use, and the
  // socket children run force-serial with deterministic reductions, so
  // the service's correlators must match these bitwise.
  std::vector<service::JobResult> reference;
  {
    qcd::GaugeField<S> gauge(&grid);
    io::load_gauge(gauge_path, gauge);
    for (const service::MeasurementJob& job : jobs)
      reference.push_back(service::measure_job(gauge, job));
  }
  bool reference_ok = true;
  for (const service::JobResult& r : reference) {
    std::printf("[reference] job %llu: %s, %u iters, %.3f s\n",
                static_cast<unsigned long long>(r.job_id),
                r.converged ? "converged" : "NOT converged", r.iterations,
                r.wall_seconds);
    reference_ok = reference_ok && r.converged;
  }
  std::printf("\n%s\n", metrics::report().c_str());
  const metrics::RegionStats dhop = metrics::get("dhop_eo_block");
  const metrics::RegionStats linalg = metrics::get("block_cg_linalg");
  if (dhop.gb_per_sec() <= 0.0 || linalg.seconds <= 0.0) {
    std::printf("FAIL: the dhop rate or linalg time is zero\n");
    return 1;
  }
  std::printf("[metrics] dhop %.2f GB/s, solver linalg %.4f s, %.2f solves/s\n",
              dhop.gb_per_sec(), linalg.seconds, metrics::get("solve").calls_per_sec());
  if (!reference_ok) {
    std::printf("FAIL: a reference solve did not converge\n");
    return 1;
  }

  // --- phase 3: the service over real rank processes ------------------------
  service::SchedulerConfig cfg;
  cfg.gauge_path = gauge_path;
  cfg.queue_path = queue_path;
  cfg.results_path = results_path;

  constexpr int kMaxAttempts = 5;
  int observed_failures = 0;
  bool drained = false;
  for (int attempt = 0; attempt < kMaxAttempts && !drained; ++attempt) {
    const bool arm_crash = crash_rank >= 0 && attempt == 0;
    std::printf("[service] launch %d (crash %s)\n", attempt,
                arm_crash ? ("armed on rank " + std::to_string(crash_rank)).c_str()
                          : "not armed");
    comms::LaunchOptions opt;
    opt.recv_timeout_ms = 5000;  // supervisor poll granularity
    opt.log_dir = make_log_dir(dir, attempt);
    const comms::LaunchReport report = comms::run_ranks(
        ranks,
        [&](int rank, comms::SocketCommunicator& socket_comm) {
          comms::FaultSchedule sched;
          if (fault_seed != 0)
            sched = comms::FaultSchedule::seeded(fault_seed, rank);
          if (arm_crash && rank == crash_rank) {
            comms::FaultEvent crash;
            crash.op = comms::FaultOp::kSend;
            crash.at = static_cast<std::uint64_t>(crash_op);
            crash.kind = comms::FaultKind::kCrash;
            sched.events.push_back(crash);
          }
          comms::FaultyCommunicator comm(socket_comm, std::move(sched));
          const int rc = service::scheduler_rank_body<S>(rank, comm, cfg);
          if (comm.faults_injected() > 0)
            std::printf("rank %d: absorbed %zu injected transient fault(s)\n", rank,
                        comm.faults_injected());
          return rc;
        },
        opt);
    // One SIGKILLed worker makes report.ok false even when the supervisor
    // drained the queue around it -- the queue file is the success oracle.
    drained = service::JobQueue::load(queue_path).all_done();
    if (!report.ok) {
      ++observed_failures;
      std::printf("[service] attempt %d: %s\n", attempt, report.describe().c_str());
    }
    if (!drained && attempt + 1 < kMaxAttempts)
      std::printf("[service] queue not drained; relaunching to recover\n");
  }
  if (!drained) {
    std::printf("\nmeasurement service: FAIL (queue never drained)\n");
    return 1;
  }

  // --- phase 4: exactly-once + bitwise verification -------------------------
  bool ok = true;
  const std::vector<service::JobResult> results = service::read_results(results_path);
  std::set<std::uint64_t> seen;
  for (const service::JobResult& r : results)
    if (!seen.insert(r.job_id).second) {
      std::printf("FAIL: job %llu appears more than once in the results file\n",
                  static_cast<unsigned long long>(r.job_id));
      ok = false;
    }
  if (results.size() != jobs.size() || seen.size() != jobs.size()) {
    std::printf("FAIL: %zu result record(s) for %zu job(s)\n", results.size(),
                jobs.size());
    ok = false;
  }
  for (const service::JobResult& r : results) {
    const service::JobResult* ref = nullptr;
    for (const service::JobResult& cand : reference)
      if (cand.job_id == r.job_id) ref = &cand;
    if (ref == nullptr) {
      std::printf("FAIL: result for unknown job %llu\n",
                  static_cast<unsigned long long>(r.job_id));
      ok = false;
      continue;
    }
    const bool bitwise = r.correlator == ref->correlator;
    const bool metrics_ok = r.dhop_gb_per_sec > 0.0;
    std::printf("  job %llu: %s, %u iters, correlator %s, dhop %.2f GB/s\n",
                static_cast<unsigned long long>(r.job_id),
                r.converged ? "converged" : "NOT CONVERGED", r.iterations,
                bitwise ? "bitwise identical" : "MISMATCH", r.dhop_gb_per_sec);
    ok = ok && r.converged && bitwise && r.iterations == ref->iterations && metrics_ok;
    if (!metrics_ok) std::printf("FAIL: job reported a zero dhop rate\n");
  }
  if (crash_rank >= 0) {
    std::printf("[faults] armed crash knob caused %d observed failure(s)\n",
                observed_failures);
    if (observed_failures < 1) {
      std::printf("FAIL: a crash knob was armed but no failure was ever observed\n");
      ok = false;
    }
  }
  std::printf("\nmeasurement service: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
