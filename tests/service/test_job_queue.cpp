// The measurement-service job queue: record round-trips, the FIFO state
// machine and its typed QueueErrors, enqueue's refusal of a job that the
// queue's own load would reject, one distinct typed IoError per
// corruption class of the "SVJQ" file, and write atomicity under a real
// SIGKILL between fsync and rename (the write-fault-hook seam shared
// with the checkpoint layer).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "comms/socket.h"
#include "service/queue.h"

namespace svelat::service {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "svelat_queue_" + name;
}

MeasurementJob sample_job(std::uint64_t id) {
  MeasurementJob job;
  job.job_id = id;
  job.config_id = 7;
  job.source = {1, 2, 3, static_cast<int>(id % 4)};
  job.spin = static_cast<int>(id % qcd::Ns);
  job.colour = static_cast<int>(id % qcd::Nc);
  job.mass = 0.4;
  job.algorithm = solver::Algorithm::kCG;
  job.preconditioner = solver::Preconditioner::kSchurEvenOdd;
  job.tolerance = 1e-8;
  job.max_iterations = 600;
  return job;
}

void expect_decode_error(std::vector<std::uint8_t> bytes, io::IoErrorCode code,
                         const std::string& fragment) {
  JobQueue q("unused");
  try {
    q.decode(bytes);
    FAIL() << "decode accepted a corrupt queue file (wanted " << fragment << ")";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
  }
}

// --- job records ------------------------------------------------------------

TEST(MeasurementJob, RecordRoundTripsAtItsDocumentedSize) {
  const MeasurementJob job = sample_job(42);
  const std::vector<std::uint8_t> bytes = encode_job(job);
  ASSERT_EQ(bytes.size(), kJobRecordBytes);
  EXPECT_EQ(decode_job(bytes), job);
}

TEST(MeasurementJob, DecodeRejectsEveryDefectClass) {
  const std::vector<std::uint8_t> good = encode_job(sample_job(1));

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(decode_job(bad_magic), io::IoError);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 99;
  EXPECT_THROW(decode_job(bad_version), io::IoError);

  std::vector<std::uint8_t> truncated(good.begin(), good.begin() + 20);
  EXPECT_THROW(decode_job(truncated), io::IoError);

  std::vector<std::uint8_t> bad_spin = good;
  bad_spin[36] = 200;  // spin field: far outside [0, Ns)
  try {
    decode_job(bad_spin);
    FAIL() << "out-of-range spin accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload);
  }

  // kNone runs kCG only (solver::supported): the solver would abort on a
  // kMixedCG or kBiCGSTAB job without the Schur engine, so the record is
  // corrupt.
  for (const solver::Algorithm alg :
       {solver::Algorithm::kMixedCG, solver::Algorithm::kBiCGSTAB}) {
    MeasurementJob unpreconditioned = sample_job(1);
    unpreconditioned.algorithm = alg;
    unpreconditioned.preconditioner = solver::Preconditioner::kNone;
    try {
      decode_job(encode_job(unpreconditioned));
      FAIL() << solver::to_string(alg) << " x kNone accepted";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload) << solver::to_string(alg);
    }
  }

  std::vector<std::uint8_t> negative_t = good;
  for (std::size_t k = 32; k < 36; ++k) negative_t[k] = 0xFF;  // source t: u32 -1
  try {
    decode_job(negative_t);
    FAIL() << "source component above INT32_MAX accepted";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload);
  }

  // A NaN mass aborts the worker in the solver; a NaN tolerance runs every
  // solve to its cap, an infinite one "converges" after 0 iterations; a
  // cap above INT32_MAX wraps to a negative int that runs no iteration.
  MeasurementJob nan_mass = sample_job(1);
  nan_mass.mass = std::numeric_limits<double>::quiet_NaN();
  MeasurementJob nan_tolerance = sample_job(1);
  nan_tolerance.tolerance = std::numeric_limits<double>::quiet_NaN();
  MeasurementJob inf_tolerance = sample_job(1);
  inf_tolerance.tolerance = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> huge_cap = good;
  for (std::size_t k = 68; k < 72; ++k) huge_cap[k] = 0xFF;  // iterations: u32 max
  for (const auto& [what, bytes] :
       {std::pair{"NaN mass", encode_job(nan_mass)},
        std::pair{"NaN tolerance", encode_job(nan_tolerance)},
        std::pair{"infinite tolerance", encode_job(inf_tolerance)},
        std::pair{"iteration cap above INT32_MAX", huge_cap}}) {
    try {
      decode_job(bytes);
      FAIL() << what << " accepted";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload) << what;
    }
  }
}

// --- the FIFO state machine -------------------------------------------------

TEST(JobQueue, FifoClaimCompleteLifecycle) {
  const std::string path = temp_path("fifo.svjq");
  JobQueue queue(path);
  queue.enqueue(sample_job(1));
  queue.enqueue(sample_job(2));
  queue.enqueue(sample_job(3));
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_FALSE(queue.all_done());

  // Claims come out oldest-first, and survive a reload from disk.
  const auto first = queue.claim(/*worker=*/1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->job_id, 1u);
  const auto second = queue.claim(/*worker=*/2);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->job_id, 2u);

  JobQueue reloaded = JobQueue::load(path);
  EXPECT_EQ(reloaded.pending(), 1u);
  EXPECT_EQ(reloaded.claimed(), 2u);
  EXPECT_EQ(reloaded.find(1)->owner, 1);
  EXPECT_EQ(reloaded.find(1)->attempts, 1u);

  queue.complete(1);
  queue.complete(2);
  const auto third = queue.claim(/*worker=*/1);
  ASSERT_TRUE(third.has_value());
  queue.complete(3);
  EXPECT_TRUE(queue.all_done());
  EXPECT_TRUE(JobQueue::load(path).all_done());
  EXPECT_FALSE(queue.claim(1).has_value());  // nothing left to hand out
  std::filesystem::remove(path);
}

TEST(JobQueue, RequeueReturnsAJobAndKeepsItsAttemptCount) {
  const std::string path = temp_path("requeue.svjq");
  JobQueue queue(path);
  queue.enqueue(sample_job(5));
  ASSERT_TRUE(queue.claim(3).has_value());
  queue.requeue(5);  // the worker died; back to pending
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.find(5)->owner, -1);
  EXPECT_EQ(queue.find(5)->attempts, 1u);

  ASSERT_TRUE(queue.claim(4).has_value());
  EXPECT_EQ(queue.find(5)->attempts, 2u);  // failures stay visible

  // Supervisor-restart recovery: all claims (their owners are gone)
  // return to pending in one sweep.
  EXPECT_EQ(queue.requeue_claimed(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
  std::filesystem::remove(path);
}

TEST(JobQueue, StateMachineViolationsAreTypedQueueErrors) {
  const std::string path = temp_path("violations.svjq");
  JobQueue queue(path);
  queue.enqueue(sample_job(1));
  EXPECT_THROW(queue.enqueue(sample_job(1)), QueueError);  // duplicate id

  ASSERT_EQ(queue.claim(/*worker=*/1).value().job_id, 1u);
  EXPECT_FALSE(queue.claim(/*worker=*/2).has_value());  // no second claim of job 1
  EXPECT_THROW(queue.requeue(99), QueueError);           // unknown job

  queue.complete(1);
  EXPECT_THROW(queue.complete(1), QueueError);  // done is not claimed
  EXPECT_THROW(queue.requeue(1), QueueError);   // done cannot requeue

  queue.enqueue(sample_job(2));
  EXPECT_THROW(queue.complete(2), QueueError);  // pending was never claimed
  std::filesystem::remove(path);
}

TEST(JobQueue, EnqueueRefusesAJobItsLoadWouldReject) {
  // One job that decode_job rejects would make every later load() of the
  // file throw, so no job in the queue could run.  enqueue() throws the
  // decoder's error instead, and the queue in memory and on disk stays as
  // it was.
  const std::string path = temp_path("refuse.svjq");
  JobQueue queue(path);
  queue.enqueue(sample_job(1));
  const std::vector<std::uint8_t> before = io::read_file_bytes(path);

  MeasurementJob nan_mass = sample_job(2);
  nan_mass.mass = std::numeric_limits<double>::quiet_NaN();
  MeasurementJob bicgstab_none = sample_job(3);
  bicgstab_none.algorithm = solver::Algorithm::kBiCGSTAB;
  bicgstab_none.preconditioner = solver::Preconditioner::kNone;
  for (const MeasurementJob& job : {nan_mass, bicgstab_none}) {
    try {
      queue.enqueue(job);
      ADD_FAILURE() << "job " << job.job_id << " was enqueued";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.code(), io::IoErrorCode::kCorruptPayload) << e.what();
    }
    EXPECT_EQ(queue.entries().size(), 1u) << "job " << job.job_id;
    EXPECT_EQ(io::read_file_bytes(path), before) << "job " << job.job_id;
  }

  JobQueue reloaded = JobQueue::load(path);
  ASSERT_EQ(reloaded.entries().size(), 1u);
  EXPECT_EQ(reloaded.claim(1).value().job_id, 1u);
  std::filesystem::remove(path);
}

// --- corruption classes -----------------------------------------------------

TEST(JobQueue, EveryCorruptionClassGetsItsOwnTypedError) {
  JobQueue queue(temp_path("corrupt.svjq"));
  queue.enqueue(sample_job(1));
  queue.enqueue(sample_job(2));
  const std::vector<std::uint8_t> good = queue.encode();

  expect_decode_error({1, 2, 3}, io::IoErrorCode::kShortRead, "header");

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  expect_decode_error(bad_magic, io::IoErrorCode::kBadMagic, "SVJQ");

  auto bad_version = good;
  bad_version[4] = 9;
  // The header CRC covers the version field, so re-seal it to reach the
  // version check (a random bit-flip is caught by the CRC below).
  {
    const std::uint32_t crc = io::crc32(bad_version.data(), 12);
    bad_version[12] = static_cast<std::uint8_t>(crc);
    bad_version[13] = static_cast<std::uint8_t>(crc >> 8);
    bad_version[14] = static_cast<std::uint8_t>(crc >> 16);
    bad_version[15] = static_cast<std::uint8_t>(crc >> 24);
  }
  expect_decode_error(bad_version, io::IoErrorCode::kBadVersion, "version 9");

  auto bad_header = good;
  bad_header[8] ^= 0x01;  // entry count no longer matches the header CRC
  expect_decode_error(bad_header, io::IoErrorCode::kCorruptHeader, "CRC-32");

  auto truncated = good;
  truncated.resize(good.size() - 10);
  expect_decode_error(truncated, io::IoErrorCode::kTruncated, "entries");

  auto trailing = good;
  trailing.push_back(0);
  expect_decode_error(trailing, io::IoErrorCode::kTrailingBytes, "longer");

  auto flipped = good;
  flipped[kQueueHeaderBytes + kQueueEntryBytes + 30] ^= 0x04;  // inside entry 1
  expect_decode_error(flipped, io::IoErrorCode::kCorruptPayload, "queue entry 1");
  std::filesystem::remove(temp_path("corrupt.svjq"));
}

// --- write atomicity --------------------------------------------------------

TEST(JobQueue, KillDuringEnqueuePreservesThePreviousQueueFile) {
  const std::string path = temp_path("killed.svjq");
  JobQueue queue(path);
  queue.enqueue(sample_job(1));
  queue.enqueue(sample_job(2));
  const std::vector<std::uint8_t> before = io::read_file_bytes(path);

  // A real forked process dies between fsync and rename of the enqueue
  // that would add job 3.
  const auto report = comms::run_ranks(1, [&](int, comms::SocketCommunicator&) {
    JobQueue q = JobQueue::load(path);
    io::set_write_fault_hook(+[] { ::raise(SIGKILL); });
    q.enqueue(sample_job(3));
    return 0;  // unreachable
  });
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.ranks[0].term_signal, SIGKILL);

  // The surviving file is byte-identical to the pre-kill queue and still
  // loads: two jobs, both pending, no trace of the torn third.
  EXPECT_EQ(io::read_file_bytes(path), before);
  JobQueue survived = JobQueue::load(path);
  EXPECT_EQ(survived.entries().size(), 2u);
  EXPECT_EQ(survived.pending(), 2u);
  EXPECT_EQ(survived.find(3), nullptr);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

}  // namespace
}  // namespace svelat::service
