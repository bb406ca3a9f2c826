#include "service/scheduler.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "io/crc32.h"
#include "support/logging.h"

namespace svelat::service {

// --- JobResult framing ("SVJR"; spec appendix in docs/FORMAT.md) ------------
//
// Record layout:
//   offset  size  field
//        0     4  magic "SVJR"
//        4     4  version (2)
//        8     4  payload length P = 40 + 8 T
//       12     P  payload: job_id u64, config_id u32, converged u32,
//                 iterations u32, wall_seconds f64, dhop GB/s f64,
//                 correlator length T u32, T x f64
//     12+P     4  CRC-32 over bytes [0, 12+P) of the record

namespace {
constexpr std::size_t kResultFixedPayload = 40;  // everything but the T doubles
}  // namespace

void encode_result(std::vector<std::uint8_t>& out, const JobResult& r) {
  const std::size_t start = out.size();
  io::put_u32(out, kResultMagic);
  io::put_u32(out, kResultVersion);
  io::put_u32(out, static_cast<std::uint32_t>(kResultFixedPayload +
                                              8 * r.correlator.size()));
  io::put_u64(out, r.job_id);
  io::put_u32(out, r.config_id);
  io::put_u32(out, r.converged ? 1 : 0);
  io::put_u32(out, r.iterations);
  io::put_f64(out, r.wall_seconds);
  io::put_f64(out, r.dhop_gb_per_sec);
  io::put_u32(out, static_cast<std::uint32_t>(r.correlator.size()));
  for (const double c : r.correlator) io::put_f64(out, c);
  io::put_u32(out, io::crc32(out.data() + start, out.size() - start));
}

std::vector<std::uint8_t> encode_result(const JobResult& r) {
  std::vector<std::uint8_t> out;
  encode_result(out, r);
  return out;
}

JobResult decode_result(const std::vector<std::uint8_t>& in, std::size_t& off) {
  using io::IoError;
  using io::IoErrorCode;
  const std::size_t start = off;
  const auto code = IoErrorCode::kTruncated;
  const std::uint32_t magic = io::get_u32(in, off, code, "result record magic");
  if (magic != kResultMagic)
    throw IoError(IoErrorCode::kBadMagic, "result record magic mismatch (not \"SVJR\")");
  const std::uint32_t version = io::get_u32(in, off, code, "result record version");
  if (version != kResultVersion)
    throw IoError(IoErrorCode::kBadVersion,
                  "result record version " + std::to_string(version) +
                      " (reader knows version " + std::to_string(kResultVersion) + ")");
  const std::uint32_t payload = io::get_u32(in, off, code, "result payload length");
  if (payload < kResultFixedPayload || (payload - kResultFixedPayload) % 8 != 0)
    throw IoError(IoErrorCode::kCorruptPayload,
                  "result payload length " + std::to_string(payload) +
                      " does not describe a correlator record");
  if (in.size() - off < payload + 4)
    throw IoError(code, "result record ends inside its payload");
  const std::uint32_t want_crc = io::crc32(in.data() + start, 12 + payload);

  JobResult r;
  r.job_id = io::get_u64(in, off, code, "result job id");
  r.config_id = io::get_u32(in, off, code, "result config id");
  r.converged = io::get_u32(in, off, code, "result converged flag") != 0;
  r.iterations = io::get_u32(in, off, code, "result iterations");
  r.wall_seconds = io::get_f64(in, off, code, "result wall seconds");
  r.dhop_gb_per_sec = io::get_f64(in, off, code, "result dhop GB/s");
  const std::uint32_t nt = io::get_u32(in, off, code, "result correlator length");
  if (kResultFixedPayload + 8 * static_cast<std::size_t>(nt) != payload)
    throw IoError(IoErrorCode::kCorruptPayload,
                  "result correlator length " + std::to_string(nt) +
                      " disagrees with the payload length");
  r.correlator.reserve(nt);
  for (std::uint32_t t = 0; t < nt; ++t)
    r.correlator.push_back(io::get_f64(in, off, code, "result correlator"));
  const std::uint32_t got_crc = io::get_u32(in, off, code, "result record crc");
  if (got_crc != want_crc)
    throw IoError(IoErrorCode::kCorruptPayload,
                  "result record for job " + std::to_string(r.job_id) +
                      " fails its CRC-32");
  return r;
}

void append_result(const std::string& path, const JobResult& r) {
  const std::vector<std::uint8_t> bytes = encode_result(r);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr)
    throw io::IoError(io::IoErrorCode::kOpenFailed,
                      "cannot open results file '" + path + "' for append");
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
                  std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!ok)
    throw io::IoError(io::IoErrorCode::kOpenFailed,
                      "short append to results file '" + path + "'");
}

std::vector<JobResult> read_results(const std::string& path) {
  const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);
  std::vector<JobResult> results;
  std::size_t off = 0;
  while (off < bytes.size()) results.push_back(decode_result(bytes, off));
  return results;
}

namespace {
/// Whether a record that decode_result accepts starts after byte `start`.
bool complete_record_after(const std::vector<std::uint8_t>& bytes, std::size_t start) {
  for (std::size_t at = start + 1; at + 4 <= bytes.size(); ++at) {
    std::size_t off = at;
    if (io::get_u32(bytes, off, io::IoErrorCode::kTruncated, "result record magic") !=
        kResultMagic)
      continue;
    off = at;
    try {
      decode_result(bytes, off);
      return true;
    } catch (const io::IoError&) {
    }
  }
  return false;
}
}  // namespace

std::size_t recover_results(const std::string& path, const JobQueue& queue) {
  if (!std::filesystem::exists(path)) return 0;
  const std::vector<std::uint8_t> bytes = io::read_file_bytes(path);

  // A crash mid-append leaves a final record that runs past the end of
  // the file: that torn tail is dropped.  Any other defect is not a crash
  // artifact, and dropping it would drop the complete records after it,
  // whose jobs are done and never re-run: it propagates, and the file
  // stays as it is.  So does a record that runs past the end only because
  // its length field is corrupted, which a complete record after it gives
  // away.
  std::vector<JobResult> kept;
  std::size_t off = 0, valid_bytes = 0, pruned = 0;
  std::set<std::uint64_t> seen;
  while (off < bytes.size()) {
    JobResult r;
    const std::size_t start = off;
    try {
      r = decode_result(bytes, off);
    } catch (const io::IoError& e) {
      if (e.code() != io::IoErrorCode::kTruncated) throw;
      if (complete_record_after(bytes, start))
        throw io::IoError(io::IoErrorCode::kCorruptPayload,
                          "result record at byte " + std::to_string(start) +
                              " runs past the end of the file, but a complete "
                              "record follows it: its length field is corrupt");
      break;  // torn tail
    }
    const QueueEntry* e = queue.find(r.job_id);
    const bool done = e != nullptr && e->state == JobState::kDone;
    if (done && seen.insert(r.job_id).second) {
      kept.push_back(std::move(r));
    } else {
      ++pruned;  // orphan (job never reached kDone) or duplicate
    }
    valid_bytes = off;
  }

  if (pruned == 0 && valid_bytes == bytes.size()) return 0;
  std::vector<std::uint8_t> out;
  for (const JobResult& r : kept) encode_result(out, r);
  io::write_file_bytes(path, out);  // atomic rewrite
  return pruned;
}

// --- supervisor -------------------------------------------------------------

int supervisor_loop(comms::Communicator& comm, const SchedulerConfig& cfg) {
  using comms::CommStatus;

  JobQueue queue = JobQueue::load(cfg.queue_path);
  const std::size_t requeued = queue.requeue_claimed();
  const std::size_t pruned = recover_results(cfg.results_path, queue);
  if (cfg.verbosity >= 1 && (requeued > 0 || pruned > 0))
    log_info() << "scheduler recovery: requeued " << requeued
               << " claimed job(s), pruned " << pruned << " orphaned result(s)";

  // The gauge is broadcast as raw SVGF bytes; workers decode into grids
  // shaped for their own SIMD layout, so the supervisor never needs one.
  const std::vector<std::uint8_t> gauge_bytes = io::read_file_bytes(cfg.gauge_path);

  std::set<int> live;
  std::map<int, std::uint64_t> in_flight;  // worker -> its claimed job
  for (int w = 0; w < comm.size(); ++w) {
    if (w == kSupervisorRank) continue;
    if (comm.send_status(kSupervisorRank, w, kGaugeTag, gauge_bytes) == CommStatus::kOk)
      live.insert(w);
    else if (cfg.verbosity >= 1)
      log_info() << "scheduler: worker " << w << " unreachable at gauge broadcast";
  }

  const auto drop_worker = [&](int w, const char* why) {
    const auto it = in_flight.find(w);
    if (it != in_flight.end()) {
      if (cfg.verbosity >= 1)
        log_info() << "scheduler: requeueing job " << it->second << " from worker "
                   << w << " (" << why << ")";
      queue.requeue(it->second);
      in_flight.erase(it);
    } else if (cfg.verbosity >= 1) {
      log_info() << "scheduler: worker " << w << " dropped (" << why << ")";
    }
    live.erase(w);
  };

  // Claim the next pending job for an idle worker; with nothing pending
  // it stays parked (blocked in its own recv, waiting for a job or
  // shutdown).
  const auto dispatch = [&](int w) {
    if (in_flight.count(w) > 0) return;
    const std::optional<MeasurementJob> job = queue.claim(w);
    if (!job.has_value()) return;
    in_flight[w] = job->job_id;  // so drop_worker requeues it on failure
    if (comm.send_status(kSupervisorRank, w, kJobTag, encode_job(*job)) !=
        CommStatus::kOk)
      drop_worker(w, "job dispatch failed");
  };

  // Consecutive readiness waits that end with neither a result nor a death
  // verdict before the supervisor gives up (each wait lasts up to the
  // transport's own receive timeout, over all in-flight workers).
  constexpr int kMaxIdleWaits = 240;
  int idle_waits = 0;
  while (!queue.all_done()) {
    if (live.empty()) {
      if (cfg.verbosity >= 1)
        log_info() << "scheduler: " << queue.pending()
                   << " job(s) remain but no worker survives; relaunch required";
      return 1;
    }
    if (queue.pending() > 0) {
      const std::set<int> idle = live;  // dispatch may mutate `live`
      for (const int w : idle) dispatch(w);
    }
    if (in_flight.empty()) continue;  // dispatch dropped every candidate

    // One wait over every in-flight worker: whichever result (or death)
    // comes first is handled first.
    std::vector<int> busy;
    for (const auto& entry : in_flight) busy.push_back(entry.first);
    const std::optional<int> ready =
        comm.wait_any(kSupervisorRank, busy, kResultTag,
                      comms::Communicator::kTransportTimeout);
    std::vector<std::uint8_t> payload;
    const CommStatus st =
        ready ? comm.recv_status(kSupervisorRank, *ready, kResultTag, payload)
              : CommStatus::kTimeout;
    if (st == CommStatus::kTimeout) {  // no result arrived in time
      if (++idle_waits >= kMaxIdleWaits) {
        if (cfg.verbosity >= 1)
          log_info() << "scheduler: no progress after " << idle_waits
                     << " waits; giving up";
        return 2;
      }
      continue;
    }
    idle_waits = 0;
    const int w = *ready;
    if (st != CommStatus::kOk) {
      drop_worker(w, comms::comm_status_name(st));
      continue;
    }
    std::size_t off = 0;
    JobResult result;
    try {
      result = decode_result(payload, off);
    } catch (const io::IoError& e) {
      drop_worker(w, e.what());
      continue;
    }
    if (result.job_id != in_flight.at(w)) {
      drop_worker(w, "result names a job it does not own");
      continue;
    }
    // Re-arm the worker before the commit's fsyncs, so it solves while they
    // run.  A crash in between leaves both jobs claimed, and the restart's
    // requeue_claimed() returns both to pending.
    in_flight.erase(w);
    dispatch(w);
    // Exactly-once commit order: fsync the result, THEN mark done.
    append_result(cfg.results_path, result);
    queue.complete(result.job_id);
    if (cfg.verbosity >= 1)
      log_info() << "scheduler: job " << result.job_id << " done on worker " << w << " ("
                 << (result.converged ? "converged" : "NOT converged") << ", "
                 << result.iterations << " iters, " << result.wall_seconds << " s)";
  }

  for (const int w : live)
    comm.send_status(kSupervisorRank, w, kJobTag, std::vector<std::uint8_t>{});
  if (cfg.verbosity >= 1)
    log_info() << "scheduler: queue drained (" << queue.done() << " job(s) done)";
  return 0;
}

}  // namespace svelat::service
