// The measurement-service scheduler: "SVJR" result-record framing,
// crash-recovery pruning of the results file, and the end-to-end
// exactly-once story over REAL forked socket ranks -- a seeded transient
// soak that must finish in one launch, and a mid-job worker SIGKILL
// whose job must be requeued onto a survivor with bitwise-identical
// output.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comms/faults.h"
#include "comms/socket.h"
#include "io/crc32.h"
#include "qcd/metropolis.h"
#include "service/scheduler.h"
#include "support/metrics.h"
#include "support/parallel.h"
#include "sve/sve.h"

namespace svelat::service {
namespace {

using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;

std::string temp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "svelat_sched_" + name;
  std::filesystem::remove_all(d);
  std::filesystem::create_directories(d);
  return d;
}

JobResult sample_result(std::uint64_t id) {
  JobResult r;
  r.job_id = id;
  r.config_id = 3;
  r.converged = true;
  r.iterations = 17;
  r.wall_seconds = 0.25;
  r.dhop_gb_per_sec = 1.5;
  r.correlator = {4.0, 2.0, 1.0, 0.5, 1.0, 2.0};
  return r;
}

/// A version-1 "SVJR" record as the version-1 writer framed it: its fixed
/// payload also carried three modelled rates after dhop GB/s (64 bytes
/// before the correlator).
std::vector<std::uint8_t> encode_version1_result(const JobResult& r) {
  std::vector<std::uint8_t> out;
  io::put_u32(out, kResultMagic);
  io::put_u32(out, 1);
  io::put_u32(out, static_cast<std::uint32_t>(64 + 8 * r.correlator.size()));
  io::put_u64(out, r.job_id);
  io::put_u32(out, r.config_id);
  io::put_u32(out, r.converged ? 1 : 0);
  io::put_u32(out, r.iterations);
  // wall seconds, dhop GB/s, then the three retired rates
  for (const double v : {r.wall_seconds, r.dhop_gb_per_sec, 0.7, 2.5, 0.5})
    io::put_f64(out, v);
  io::put_u32(out, static_cast<std::uint32_t>(r.correlator.size()));
  for (const double c : r.correlator) io::put_f64(out, c);
  io::put_u32(out, io::crc32(out.data(), out.size()));
  return out;
}

/// Mass of the scheduler test's slow job: lighter than small_job's, so its
/// unpreconditioned CG needs many more iterations.
constexpr double kSlowMass = 0.05;

MeasurementJob small_job(std::uint64_t id) {
  MeasurementJob job;
  job.job_id = id;
  job.config_id = 0;
  job.source = {0, 0, 0, 0};
  job.spin = static_cast<int>((id - 1) % qcd::Ns);
  job.colour = static_cast<int>((id - 1) % qcd::Nc);
  job.mass = 0.4;
  job.tolerance = 1e-7;
  job.max_iterations = 400;
  return job;
}

// --- result records ---------------------------------------------------------

TEST(JobResultRecord, RoundTripsBitwise) {
  const JobResult r = sample_result(9);
  const std::vector<std::uint8_t> bytes = encode_result(r);
  std::size_t off = 0;
  const JobResult back = decode_result(bytes, off);
  EXPECT_EQ(off, bytes.size());
  EXPECT_EQ(back.job_id, r.job_id);
  EXPECT_EQ(back.config_id, r.config_id);
  EXPECT_EQ(back.converged, r.converged);
  EXPECT_EQ(back.iterations, r.iterations);
  EXPECT_EQ(back.wall_seconds, r.wall_seconds);
  EXPECT_EQ(back.dhop_gb_per_sec, r.dhop_gb_per_sec);
  EXPECT_EQ(back.correlator, r.correlator);
  // Version 2: header, a 40-byte fixed payload plus 8 bytes per slice, CRC.
  EXPECT_EQ(bytes.size(), 12 + 40 + 8 * r.correlator.size() + 4);
}

TEST(JobResultRecord, DecodeRejectsCorruption) {
  std::vector<std::uint8_t> bytes = encode_result(sample_result(1));
  bytes[20] ^= 0x10;  // inside the payload: CRC must catch it
  std::size_t off = 0;
  try {
    decode_result(bytes, off);
    FAIL() << "corrupt result record accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload);
  }

  std::vector<std::uint8_t> torn = encode_result(sample_result(2));
  torn.resize(torn.size() - 6);
  off = 0;
  EXPECT_THROW(decode_result(torn, off), io::IoError);

  const std::vector<std::uint8_t> v1 = encode_version1_result(sample_result(3));
  off = 0;
  try {
    decode_result(v1, off);
    FAIL() << "version-1 record accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.code(), io::IoErrorCode::kBadVersion);
  }
}

TEST(ResultsFile, AppendReadAndRecover) {
  const std::string dir = temp_dir("recover");
  const std::string results = dir + "/results.svjr";
  const std::string qpath = dir + "/jobs.svjq";

  // Queue bookkeeping: jobs 1 and 2 done, job 3 still claimed (its owner
  // "died" before completion was recorded).
  JobQueue queue(qpath);
  for (std::uint64_t id : {1u, 2u, 3u}) queue.enqueue(small_job(id));
  ASSERT_EQ(queue.claim(1).value().job_id, 1u);
  queue.complete(1);
  ASSERT_EQ(queue.claim(2).value().job_id, 2u);
  queue.complete(2);
  ASSERT_EQ(queue.claim(1).value().job_id, 3u);

  append_result(results, sample_result(1));
  append_result(results, sample_result(2));
  append_result(results, sample_result(3));  // orphan: job 3 never reached done
  {
    // A torn tail, as a crash mid-append would leave.
    std::vector<std::uint8_t> tail = encode_result(sample_result(4));
    tail.resize(10);
    std::vector<std::uint8_t> whole = io::read_file_bytes(results);
    whole.insert(whole.end(), tail.begin(), tail.end());
    io::write_file_bytes(results, whole);
  }

  EXPECT_EQ(recover_results(results, queue), 1u);  // the orphan for job 3
  const std::vector<JobResult> kept = read_results(results);  // strict parse
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].job_id, 1u);
  EXPECT_EQ(kept[1].job_id, 2u);

  // Idempotent: a clean file recovers to itself without a rewrite.
  EXPECT_EQ(recover_results(results, queue), 0u);
  // A missing file is an empty history.
  EXPECT_EQ(recover_results(dir + "/absent.svjr", queue), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ResultsFile, RecoveryNeverDropsACompleteRecord) {
  // Only a final record cut short by the end of the file is a torn tail.
  // Any other defect throws and leaves the file as it was: the queue never
  // re-runs a done job, so a dropped record would be a lost result.  A
  // middle record whose length field claims more bytes than remain looks
  // cut short too, but the complete record after it gives it away.
  const std::string dir = temp_dir("never_drop");
  const std::string results = dir + "/results.svjr";
  JobQueue queue(dir + "/jobs.svjq");
  std::vector<std::uint8_t> clean, version1;
  for (std::uint64_t id : {1u, 2u, 3u}) {
    queue.enqueue(small_job(id));
    ASSERT_EQ(queue.claim(1).value().job_id, id);
    queue.complete(id);
    encode_result(clean, sample_result(id));
    const std::vector<std::uint8_t> v1 = encode_version1_result(sample_result(id));
    version1.insert(version1.end(), v1.begin(), v1.end());
  }
  const std::size_t record = clean.size() / 3;

  std::vector<std::uint8_t> flipped = clean;
  flipped[record + 20] ^= 0x10;  // inside record 2's payload
  std::vector<std::uint8_t> long_length = clean;
  long_length[record + 10] ^= 0x01;  // bit 16 of record 2's payload length
  std::vector<std::uint8_t> version99 = clean;
  for (std::size_t k = 0; k < 3; ++k) version99[k * record + 4] = 99;

  const struct {
    const char* what;
    const std::vector<std::uint8_t>& bytes;
    io::IoErrorCode code;
  } cases[] = {{"mid-file bit flip", flipped, io::IoErrorCode::kCorruptPayload},
               {"record 2's length flipped past the end", long_length,
                io::IoErrorCode::kCorruptPayload},
               {"every record at version 99", version99, io::IoErrorCode::kBadVersion},
               {"a version-1 file", version1, io::IoErrorCode::kBadVersion}};
  for (const auto& c : cases) {
    io::write_file_bytes(results, c.bytes);
    try {
      recover_results(results, queue);
      ADD_FAILURE() << c.what << ": recovery accepted the file";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.code(), c.code) << c.what;
    }
    EXPECT_EQ(io::read_file_bytes(results), c.bytes) << c.what << ": file rewritten";
  }

  io::write_file_bytes(results, clean);
  EXPECT_EQ(recover_results(results, queue), 0u);
  EXPECT_EQ(read_results(results).size(), 3u);
  std::filesystem::remove_all(dir);
}

// --- per-job rates ------------------------------------------------------------

TEST(MeasureJob, EveryJobKindReportsItsHopRate) {
  // The service runs four job kinds.  The Schur jobs hop in the Schur
  // engine's regions (dhop_eo_block / dhop_oe_block), CG x none in
  // WilsonDirac's (dhop); the job's hop rate must cover each.
  // Single-threaded, as in ServiceFixture.
  const ThreadCountGuard threads(1);
  sve::VLGuard vl(256);
  lattice::GridCartesian grid({4, 4, 4, 8},
                              lattice::GridCartesian::default_simd_layout(S::Nsimd()));
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  using solver::Algorithm;
  using solver::Preconditioner;
  const std::pair<Algorithm, Preconditioner> kinds[] = {
      {Algorithm::kCG, Preconditioner::kSchurEvenOdd},
      {Algorithm::kBiCGSTAB, Preconditioner::kSchurEvenOdd},
      {Algorithm::kMixedCG, Preconditioner::kSchurEvenOdd},
      {Algorithm::kCG, Preconditioner::kNone}};
  for (const auto& [alg, pre] : kinds) {
    MeasurementJob job = small_job(1);
    job.algorithm = alg;
    job.preconditioner = pre;
    const JobResult r = measure_job(gauge, job);
    const std::string kind =
        std::string(solver::to_string(alg)) + " x " + solver::to_string(pre);
    EXPECT_TRUE(r.converged) << kind;
    EXPECT_GT(r.dhop_gb_per_sec, 0.0) << kind;
  }
  metrics::reset();
}

// --- end to end over real forked ranks --------------------------------------

/// Jobs 1..n of small_job.
std::vector<MeasurementJob> small_jobs(int n) {
  std::vector<MeasurementJob> jobs;
  for (int id = 1; id <= n; ++id)
    jobs.push_back(small_job(static_cast<std::uint64_t>(id)));
  return jobs;
}

struct ServiceFixture {
  std::string dir;
  SchedulerConfig cfg;
  std::vector<MeasurementJob> jobs;
  std::vector<JobResult> reference;

  ServiceFixture(const std::string& name, int njobs)
      : ServiceFixture(name, small_jobs(njobs)) {}

  ServiceFixture(const std::string& name, std::vector<MeasurementJob> job_list)
      : dir(temp_dir(name)), jobs(std::move(job_list)) {
    sve::set_vector_length(256);
    cfg.gauge_path = dir + "/cfg0.svgf";
    cfg.queue_path = dir + "/jobs.svjq";
    cfg.results_path = dir + "/results.svjr";
    cfg.verbosity = 0;

    lattice::GridCartesian grid(
        {4, 4, 4, 8}, lattice::GridCartesian::default_simd_layout(S::Nsimd()));
    qcd::GaugeField<S> gauge(&grid);
    qcd::random_gauge(SiteRNG(2018), gauge);
    io::save_gauge(cfg.gauge_path, gauge);

    JobQueue queue(cfg.queue_path);
    for (const MeasurementJob& job : jobs) queue.enqueue(job);
    // The uninterrupted in-process truth the service must reproduce
    // bitwise (children run force-serial; reductions are deterministic).
    // Single-threaded too: results are thread-count invariant, and the
    // tiny site loops of 4^3x8 solves spend their time in OpenMP team
    // start-up when ctest runs suites side by side.
    const ThreadCountGuard threads(1);
    qcd::GaugeField<S> reloaded(&grid);
    io::load_gauge(cfg.gauge_path, reloaded);
    for (const MeasurementJob& job : jobs)
      reference.push_back(measure_job(reloaded, job));
  }

  /// Exactly-once + bitwise check of the final queue/results state.
  void verify() const {
    EXPECT_TRUE(JobQueue::load(cfg.queue_path).all_done());
    const std::vector<JobResult> results = read_results(cfg.results_path);
    ASSERT_EQ(results.size(), jobs.size());
    std::set<std::uint64_t> seen;
    for (const JobResult& r : results) {
      EXPECT_TRUE(seen.insert(r.job_id).second)
          << "job " << r.job_id << " completed more than once";
      ASSERT_GE(r.job_id, 1u);
      ASSERT_LE(r.job_id, jobs.size());
      const JobResult& ref = reference[r.job_id - 1];
      EXPECT_TRUE(r.converged);
      EXPECT_EQ(r.iterations, ref.iterations);
      EXPECT_EQ(r.correlator, ref.correlator) << "job " << r.job_id;
    }
    EXPECT_EQ(seen.size(), jobs.size());
  }
};

comms::LaunchReport launch_service(const ServiceFixture& fx, int ranks,
                                   std::uint64_t fault_seed, int crash_rank,
                                   std::uint64_t crash_at) {
  comms::LaunchOptions opt;
  opt.recv_timeout_ms = 3000;
  opt.log_dir = fx.dir;
  return comms::run_ranks(
      ranks,
      [&](int rank, comms::SocketCommunicator& socket_comm) {
        comms::FaultSchedule sched;
        if (fault_seed != 0) sched = comms::FaultSchedule::seeded(fault_seed, rank);
        if (rank == crash_rank) {
          comms::FaultEvent crash;
          crash.op = comms::FaultOp::kSend;
          crash.at = crash_at;
          crash.kind = comms::FaultKind::kCrash;
          sched.events.push_back(crash);
        }
        comms::FaultyCommunicator comm(socket_comm, std::move(sched));
        return scheduler_rank_body<S>(rank, comm, fx.cfg);
      },
      opt);
}

TEST(MeasurementService, SoakUnderSeededTransientsCompletesInOneLaunch) {
  const ServiceFixture fx("soak", 4);
  // Seeded delays and spurious EOFs on every rank: the retry ladder must
  // absorb all of them -- one launch, every rank exits 0, exactly once.
  const auto report = launch_service(fx, /*ranks=*/3, /*fault_seed=*/2018,
                                     /*crash_rank=*/-1, 0);
  EXPECT_TRUE(report.ok) << report.describe();
  fx.verify();
  std::filesystem::remove_all(fx.dir);
}

TEST(MeasurementService, SlowWorkerCannotDelayAFastWorkersCommits) {
  // Job 1 costs many times any other: CG without preconditioner at a
  // tight tolerance, against BiCGSTAB x Schur for the rest.  Worker 1
  // claims job 1 and worker 2 job 2 (FIFO claims, idle workers in rank
  // order).  While worker 1 solves, worker 2's results must be committed
  // as they arrive, and it must be handed the next jobs -- a supervisor
  // that waits on worker 1 first would commit job 1 first.
  std::vector<MeasurementJob> jobs = small_jobs(8);
  for (MeasurementJob& job : jobs) {
    job.algorithm = solver::Algorithm::kBiCGSTAB;
    job.preconditioner = solver::Preconditioner::kSchurEvenOdd;
  }
  jobs[0].algorithm = solver::Algorithm::kCG;
  jobs[0].preconditioner = solver::Preconditioner::kNone;
  jobs[0].mass = kSlowMass;
  jobs[0].tolerance = 1e-12;
  jobs[0].max_iterations = 4000;
  const ServiceFixture fx("slow_first", jobs);
  const auto report = launch_service(fx, /*ranks=*/3, /*fault_seed=*/0,
                                     /*crash_rank=*/-1, 0);
  EXPECT_TRUE(report.ok) << report.describe();
  fx.verify();

  const std::vector<JobResult> results = read_results(fx.cfg.results_path);
  const auto slow = std::find_if(results.begin(), results.end(),
                                 [](const JobResult& r) { return r.job_id == 1; });
  ASSERT_NE(slow, results.end());
  EXPECT_GE(slow - results.begin(), 3) << "fast jobs committed before the slow job 1";
  // FIFO claims: worker 2 drew job 2 and then every job up to the one in
  // hand when job 1 ended, so the jobs ahead of job 1 are 2, 3, 4, ...
  for (std::ptrdiff_t i = 0; i < slow - results.begin(); ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)].job_id,
              static_cast<std::uint64_t>(i + 2));
  std::filesystem::remove_all(fx.dir);
}

TEST(MeasurementService, WorkerCrashMidJobIsRequeuedExactlyOnce) {
  const ServiceFixture fx("crash", 4);
  // Worker 1 is SIGKILLed at its second result send -- a job it owns is
  // claimed but unreported.  The supervisor must requeue it onto the
  // surviving worker and still drain the queue within this launch.
  const auto report = launch_service(fx, /*ranks=*/3, /*fault_seed=*/0,
                                     /*crash_rank=*/1, /*crash_at=*/1);
  EXPECT_FALSE(report.ranks[1].exited);  // the injected SIGKILL really fired
  EXPECT_EQ(report.ranks[1].term_signal, SIGKILL);
  EXPECT_TRUE(report.ranks[0].ok()) << report.describe();  // supervisor drained
  fx.verify();

  // The attempt count records the failure: some job was claimed twice.
  const JobQueue queue = JobQueue::load(fx.cfg.queue_path);
  std::uint32_t max_attempts = 0;
  for (const QueueEntry& e : queue.entries())
    max_attempts = std::max(max_attempts, e.attempts);
  EXPECT_GE(max_attempts, 2u);
  std::filesystem::remove_all(fx.dir);
}

}  // namespace
}  // namespace svelat::service
