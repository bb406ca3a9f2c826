// JobQueue: the persistent FIFO of the measurement service.
//
// A queue file holds every job ever enqueued together with its lifecycle
// state, so a restarted supervisor knows exactly what is pending, what
// was in flight when the previous run died, and what is already done:
//
//   kPending --claim()--> kClaimed --complete()--> kDone
//                 ^            |
//                 +--requeue()-+   (worker died; attempts += 1)
//
// On-disk format "SVJQ" (version 1; spec appendix in docs/FORMAT.md):
//
//   offset  size  field
//        0     4  magic "SVJQ"
//        4     4  version (1)
//        8     4  entry count
//       12     4  header CRC-32 (over bytes [0, 12))
//   then per entry, 88 bytes each:
//        0    72  job record (service/job.h, "SVJB")
//       72     4  state    (0 pending, 1 claimed, 2 done)
//       76     4  owner    (claiming worker rank; int32, -1 when none)
//       80     4  attempts (times the job was claimed)
//       84     4  entry CRC-32 (over the entry's first 84 bytes)
//
// Validation is strict and total, like every io/ format: a corrupted
// entry names its index in a typed IoError and nothing silently loads.
// Every mutation rewrites the whole file through io::write_file_bytes'
// temp + fsync + rename path, so a crash -- including SIGKILL mid-
// enqueue -- leaves either the old queue or the new one, never a torn
// mix (pinned by tests/service/test_job_queue.cpp via the write fault
// hook).  Queue files are small (88 bytes per job), so atomic whole-file
// rewrites are far below the cost of one measurement job.
//
// claim() hands out only the oldest pending job, so a duplicate claim is
// impossible by construction.  Misuse of the rest of the state machine
// (completing or requeueing a job that is not claimed) is a QueueError,
// distinct from file corruption: it means the scheduler's bookkeeping is
// wrong, not the disk.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/crc32.h"
#include "service/job.h"

namespace svelat::service {

inline constexpr std::uint32_t kQueueMagic = 0x514A5653u;  // "SVJQ" on disk
inline constexpr std::uint32_t kQueueVersion = 1;
inline constexpr std::size_t kQueueHeaderBytes = 16;
inline constexpr std::size_t kQueueEntryBytes = kJobRecordBytes + 16;

enum class JobState : std::uint32_t { kPending = 0, kClaimed = 1, kDone = 2 };

constexpr const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kClaimed: return "claimed";
    case JobState::kDone: return "done";
  }
  return "?";
}

/// A state-machine violation (completing an unclaimed job, an unknown or
/// duplicate job id).  Greppable: "svelat queue: <detail>".
class QueueError : public std::runtime_error {
 public:
  explicit QueueError(const std::string& detail)
      : std::runtime_error("svelat queue: " + detail) {}
};

struct QueueEntry {
  MeasurementJob job;
  JobState state = JobState::kPending;
  std::int32_t owner = -1;     ///< claiming worker rank (-1: unowned)
  std::uint32_t attempts = 0;  ///< times the job has been claimed
};

class JobQueue {
 public:
  /// An empty queue that will persist to `path` (nothing written until
  /// the first save()/enqueue()).
  explicit JobQueue(std::string path) : path_(std::move(path)) {}

  /// Load and fully validate an existing queue file.  Throws io::IoError
  /// naming the corruption class on any defect.
  static JobQueue load(const std::string& path) {
    JobQueue q(path);
    q.decode(io::read_file_bytes(path));
    return q;
  }

  const std::string& path() const { return path_; }
  const std::vector<QueueEntry>& entries() const { return entries_; }

  std::size_t count(JobState s) const {
    std::size_t n = 0;
    for (const QueueEntry& e : entries_) n += e.state == s ? 1 : 0;
    return n;
  }
  std::size_t pending() const { return count(JobState::kPending); }
  std::size_t claimed() const { return count(JobState::kClaimed); }
  std::size_t done() const { return count(JobState::kDone); }
  bool all_done() const { return done() == entries_.size(); }

  /// Append a pending job and persist.  Job ids must be unique.  A job
  /// whose record decode_job rejects throws that io::IoError and leaves
  /// the queue unchanged: stored, it would make every later load() fail.
  void enqueue(const MeasurementJob& job) {
    if (find(job.job_id) != nullptr)
      throw QueueError("job " + std::to_string(job.job_id) + " is already enqueued");
    entries_.push_back(
        QueueEntry{decode_job(encode_job(job)), JobState::kPending, -1, 0});
    save();
  }

  /// Claim the oldest pending job for `worker` (FIFO) and persist;
  /// std::nullopt when nothing is pending.
  std::optional<MeasurementJob> claim(int worker) {
    for (QueueEntry& e : entries_) {
      if (e.state != JobState::kPending) continue;
      e.state = JobState::kClaimed;
      e.owner = worker;
      ++e.attempts;
      save();
      return e.job;
    }
    return std::nullopt;
  }

  /// kClaimed -> kDone.  Completing a job that is not claimed (never
  /// claimed, or already done) is a QueueError: it would mean a result
  /// arrived from a worker that does not own the job.
  void complete(std::uint64_t job_id) {
    QueueEntry& e = require(job_id);
    if (e.state != JobState::kClaimed)
      throw QueueError("cannot complete job " + std::to_string(job_id) + ": it is " +
                       to_string(e.state) + ", not claimed");
    e.state = JobState::kDone;
    e.owner = -1;
    save();
  }

  /// kClaimed -> kPending (the owning worker died mid-job).  The attempt
  /// count persists, so a repeatedly failing job is visible.
  void requeue(std::uint64_t job_id) {
    QueueEntry& e = require(job_id);
    if (e.state != JobState::kClaimed)
      throw QueueError("cannot requeue job " + std::to_string(job_id) + ": it is " +
                       to_string(e.state) + ", not claimed");
    e.state = JobState::kPending;
    e.owner = -1;
    save();
  }

  /// Recovery on (re)start: every claimed job's owner is gone, so all
  /// claims return to pending.  Returns how many were requeued.
  std::size_t requeue_claimed() {
    std::size_t n = 0;
    for (QueueEntry& e : entries_) {
      if (e.state != JobState::kClaimed) continue;
      e.state = JobState::kPending;
      e.owner = -1;
      ++n;
    }
    if (n > 0) save();
    return n;
  }

  const QueueEntry* find(std::uint64_t job_id) const {
    for (const QueueEntry& e : entries_)
      if (e.job.job_id == job_id) return &e;
    return nullptr;
  }

  /// Persist atomically (temp + fsync + rename via io::write_file_bytes).
  void save() const { io::write_file_bytes(path_, encode()); }

  std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> out;
    out.reserve(kQueueHeaderBytes + entries_.size() * kQueueEntryBytes);
    io::put_u32(out, kQueueMagic);
    io::put_u32(out, kQueueVersion);
    io::put_u32(out, static_cast<std::uint32_t>(entries_.size()));
    io::put_u32(out, io::crc32(out.data(), out.size()));
    for (const QueueEntry& e : entries_) {
      const std::size_t start = out.size();
      encode_job(out, e.job);
      io::put_u32(out, static_cast<std::uint32_t>(e.state));
      io::put_u32(out, static_cast<std::uint32_t>(e.owner));
      io::put_u32(out, e.attempts);
      io::put_u32(out, io::crc32(out.data() + start, out.size() - start));
    }
    return out;
  }

  /// Strict full-file validation; replaces this queue's entries.
  void decode(const std::vector<std::uint8_t>& bytes) {
    using io::IoError;
    using io::IoErrorCode;
    if (bytes.size() < kQueueHeaderBytes)
      throw IoError(IoErrorCode::kShortRead,
                    "queue file ends inside the 16-byte header (" +
                        std::to_string(bytes.size()) + " bytes)");
    std::size_t off = 0;
    const auto hcode = IoErrorCode::kShortRead;
    const std::uint32_t magic = io::get_u32(bytes, off, hcode, "queue magic");
    if (magic != kQueueMagic)
      throw IoError(IoErrorCode::kBadMagic, "queue magic mismatch (not \"SVJQ\")");
    const std::uint32_t version = io::get_u32(bytes, off, hcode, "queue version");
    if (version != kQueueVersion)
      throw IoError(IoErrorCode::kBadVersion,
                    "queue version " + std::to_string(version) +
                        " (reader knows version " + std::to_string(kQueueVersion) + ")");
    const std::uint32_t n = io::get_u32(bytes, off, hcode, "queue entry count");
    const std::uint32_t stored_crc = io::get_u32(bytes, off, hcode, "queue header crc");
    if (stored_crc != io::crc32(bytes.data(), 12))
      throw IoError(IoErrorCode::kCorruptHeader, "queue header CRC-32 mismatch");
    if (bytes.size() < kQueueHeaderBytes + n * kQueueEntryBytes)
      throw IoError(IoErrorCode::kTruncated,
                    "queue file ends inside its " + std::to_string(n) + " entries");
    if (bytes.size() > kQueueHeaderBytes + n * kQueueEntryBytes)
      throw IoError(IoErrorCode::kTrailingBytes,
                    "queue file is longer than its " + std::to_string(n) + " entries");

    std::vector<QueueEntry> entries;
    entries.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::size_t start = off;
      // Entry CRC first: a bit-flip anywhere in the entry reports as THIS
      // entry's corruption, never as a confusing job-record defect.
      std::size_t crc_off = start + kQueueEntryBytes - 4;
      const std::uint32_t entry_crc =
          io::get_u32(bytes, crc_off, IoErrorCode::kTruncated, "queue entry crc");
      if (entry_crc != io::crc32(bytes.data() + start, kQueueEntryBytes - 4))
        throw IoError(IoErrorCode::kCorruptPayload,
                      "queue entry " + std::to_string(i) + " CRC-32 mismatch");
      QueueEntry e;
      e.job = decode_job(bytes, off);
      const auto ecode = IoErrorCode::kTruncated;
      const std::uint32_t state = io::get_u32(bytes, off, ecode, "queue entry state");
      e.owner = static_cast<std::int32_t>(
          io::get_u32(bytes, off, ecode, "queue entry owner"));
      e.attempts = io::get_u32(bytes, off, ecode, "queue entry attempts");
      off = crc_off;
      if (state > static_cast<std::uint32_t>(JobState::kDone))
        throw IoError(IoErrorCode::kCorruptPayload,
                      "queue entry " + std::to_string(i) + " holds state " +
                          std::to_string(state));
      e.state = static_cast<JobState>(state);
      entries.push_back(std::move(e));
    }
    entries_ = std::move(entries);
  }

 private:
  QueueEntry& require(std::uint64_t job_id) {
    for (QueueEntry& e : entries_)
      if (e.job.job_id == job_id) return e;
    throw QueueError("unknown job " + std::to_string(job_id));
  }

  std::string path_;
  std::vector<QueueEntry> entries_;
};

}  // namespace svelat::service
