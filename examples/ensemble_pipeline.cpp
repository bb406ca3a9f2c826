// The fault-tolerant generate -> checkpoint -> measure pipeline over the
// gauge I/O layer (src/io/, spec in docs/FORMAT.md; fault model in
// docs/FAULTS.md).
//
// Phases, each verified against the in-memory truth:
//
//   1. REFERENCE  run the quenched Metropolis chain uninterrupted in the
//      launcher process, recording every configuration's exact bytes and
//      plaquette.  This is the ground truth all recovery is measured
//      against.
//   2. GENERATE   the same chain in a SUPERVISED worker process that
//      checkpoints every configuration (atomic temp+rename writes).  The
//      launcher watches the worker's exit verdict; when it dies -- e.g.
//      under an injected --kill-sweep / --kill-write fault -- the
//      launcher relaunches it, and the worker resumes from the newest
//      checkpoint that decodes.  Every recovered configuration must be
//      BITWISE identical to the reference chain's.
//   3. RESUME     re-run the last step from the second-to-last checkpoint
//      in-process and check bitwise identity (the classic restart check).
//   4. REDISTRIBUTE over 2-4 real rank processes (socket transport): rank
//      0 loads each stored configuration and scatters it; the ranks
//      re-store it as one SVGF file through rank 0 (save_gauge_root),
//      reload it (load_gauge_root), and gather back.  An injected rank
//      crash (--crash-rank) gives the survivors typed kPeerExited
//      verdicts and the launcher retries the phase; seeded transient
//      faults (--fault-seed) must be absorbed by the retry policy with no
//      relaunch at all.
//   5. MEASURE    plaquette (every configuration) and the pion correlator
//      (final configuration) on the reloaded fields; every number must
//      equal the in-memory original exactly.
//
// Exit code 0 iff every check passed AND, when a kill/crash knob was
// armed, at least one failure was actually observed and recovered from.
// The CI fault-injection lane runs the kill/recover modes at 2 ranks and
// uploads the rank logs on failure.
//
// Usage: ./examples/ensemble_pipeline [ranks=2] [L=4] [T=8] [nconfigs=2]
//            [dir=ensemble.tmp]
//            [--kill-sweep=N]   SIGKILL the generation worker after its
//                               N-th Metropolis sweep (first launch only)
//            [--kill-write=N]   SIGKILL the generation worker mid-write
//                               of cfg N, between fsync and rename (first
//                               launch only; proves the previous
//                               checkpoint survives a torn write)
//            [--crash-rank=R]   SIGKILL rank R of the distribute phase at
//                               its --crash-op'th send (first launch only)
//            [--crash-op=K]     operation index for --crash-rank (default 1)
//            [--fault-seed=S]   seeded transient delays/spurious EOFs in
//                               the distribute phase, absorbed by retries
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "comms/faults.h"
#include "comms/socket.h"
#include "core/svelat.h"
#include "io/io.h"
#include "qcd/metropolis.h"
#include "qcd/propagator.h"

namespace {

using namespace svelat;
using S = simd::SimdComplex<double, simd::kVLB256, simd::SveFcmla>;

std::string cfg_path(const std::string& dir, int n) {
  return dir + "/cfg" + std::to_string(n) + ".svgf";
}

std::vector<double> measure_pion(const qcd::GaugeField<S>& gauge, double mass,
                                 bool* converged) {
  solver::WilsonSolver<S> solver(
      gauge, mass, solver::SolverParams{}.with_tolerance(1e-8).with_max_iterations(600));
  qcd::Propagator<S> prop(gauge.grid());
  const auto report = qcd::compute_propagator(solver, {0, 0, 0, 0}, prop);
  *converged = report.all_converged();
  return qcd::pion_correlator(prop);
}

qcd::MarkovState fresh_state() {
  qcd::MarkovState state;
  state.params.beta = 5.7;
  state.params.epsilon = 0.24;
  state.params.seed = 515;
  return state;
}

struct FaultKnobs {
  long long kill_sweep = -1;  ///< SIGKILL generation after this many sweeps
  int kill_write = -1;        ///< SIGKILL mid-write of this cfg index
  int crash_rank = -1;        ///< distribute phase: rank to crash
  long long crash_op = 1;     ///< ... at this send index
  std::uint64_t fault_seed = 0;  ///< distribute phase: seeded transients
  bool any_kill() const {
    return kill_sweep >= 0 || kill_write >= 0 || crash_rank >= 0;
  }
};

std::string make_log_dir(const std::string& dir, const std::string& phase,
                         int attempt) {
  const std::string d = dir + "/logs/" + phase + std::to_string(attempt);
  std::filesystem::create_directories(d);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  int positional[4] = {2, 4, 8, 2};
  std::string dir = "ensemble.tmp";
  FaultKnobs knobs;
  int npos = 0;
  bool usage_error = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--kill-sweep=", 0) == 0)
      knobs.kill_sweep = std::atoll(arg.c_str() + 13);
    else if (arg.rfind("--kill-write=", 0) == 0)
      knobs.kill_write = std::atoi(arg.c_str() + 13);
    else if (arg.rfind("--crash-rank=", 0) == 0)
      knobs.crash_rank = std::atoi(arg.c_str() + 13);
    else if (arg.rfind("--crash-op=", 0) == 0)
      knobs.crash_op = std::atoll(arg.c_str() + 11);
    else if (arg.rfind("--fault-seed=", 0) == 0)
      knobs.fault_seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 13));
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
  const int nconfigs = positional[3];
  if (usage_error || ranks < 1 || ranks > 8 || T % ranks != 0 || nconfigs < 1) {
    std::fprintf(stderr,
                 "usage: %s [ranks] [L] [T] [nconfigs] [dir] [--kill-sweep=N] "
                 "[--kill-write=N] [--crash-rank=R] [--crash-op=K] "
                 "[--fault-seed=S] (T %% ranks == 0)\n",
                 argv[0]);
    return 2;
  }

  sve::set_vector_length(256);
  const lattice::Coordinate dims{L, L, L, T};
  const lattice::Coordinate layout = comms::split_simd_layout(dims, 3, S::Nsimd());
  lattice::GridCartesian grid(dims, layout);
  std::filesystem::create_directories(dir);

  const double mass = 0.4;
  constexpr int kTherm = 2, kGap = 2;
  int observed_failures = 0;

  // --- phase 1: uninterrupted reference chain, in memory --------------------
  std::printf("[reference] %dx%dx%dx%d lattice, %d configurations, dir '%s'\n", L, L,
              L, T, nconfigs, dir.c_str());
  qcd::GaugeField<S> gauge(&grid);
  qcd::random_gauge(SiteRNG(2018), gauge);
  qcd::MarkovState state = fresh_state();
  qcd::advance(gauge, state, kTherm);

  std::vector<std::vector<std::uint8_t>> stored_bytes;  // in-memory originals
  std::vector<double> stored_plaq;
  std::vector<long long> stored_sweeps;
  for (int n = 0; n < nconfigs; ++n) {
    const auto stats = qcd::advance(gauge, state, kGap);
    stored_bytes.push_back(io::encode_gauge(gauge));
    stored_plaq.push_back(qcd::average_plaquette(gauge));
    stored_sweeps.push_back(static_cast<long long>(state.sweeps_done));
    std::printf("  cfg %d: sweeps=%lld plaquette=%+.6f acceptance=%.2f\n", n,
                stored_sweeps.back(), stored_plaq.back(), stats.acceptance);
  }

  // --- phase 2: supervised, checkpointed generation with auto-recovery ------
  // The worker resumes from the newest checkpoint that decodes; the
  // launcher relaunches it on any failure verdict.  Kill knobs are armed
  // on the FIRST launch only, so the relaunch proves recovery.
  std::printf("[generate] supervised worker (kill-sweep=%lld kill-write=%d)\n",
              knobs.kill_sweep, knobs.kill_write);
  const auto generation_worker = [&](bool arm_kill_sweep, bool arm_kill_write) {
    return [&, arm_kill_sweep, arm_kill_write](int, comms::SocketCommunicator&) {
      qcd::GaugeField<S> g(&grid);
      qcd::MarkovState st;
      int next_cfg = -1;
      for (int n = nconfigs - 1; n >= 0 && next_cfg < 0; --n) {
        try {
          // decode_field_file validates everything before the field is
          // touched, so a failed load leaves `g` unmodified.
          st = io::load_checkpoint(cfg_path(dir, n), g);
          next_cfg = n + 1;
          std::printf("worker: recovered from checkpoint cfg%d (sweeps=%lld)\n", n,
                      static_cast<long long>(st.sweeps_done));
        } catch (const io::IoError& e) {
          std::printf("worker: cfg%d unusable: %s\n", n, e.what());
        }
      }
      const auto sweep_once = [&] {
        qcd::advance(g, st, 1);
        if (arm_kill_sweep &&
            static_cast<long long>(st.sweeps_done) == knobs.kill_sweep) {
          std::printf("worker: injected kill after sweep %lld\n", knobs.kill_sweep);
          std::fflush(nullptr);
          ::raise(SIGKILL);
        }
      };
      if (next_cfg < 0) {
        next_cfg = 0;
        qcd::random_gauge(SiteRNG(2018), g);
        st = fresh_state();
        for (int s = 0; s < kTherm; ++s) sweep_once();
      }
      for (int n = next_cfg; n < nconfigs; ++n) {
        for (int s = 0; s < kGap; ++s) sweep_once();
        if (arm_kill_write && n == knobs.kill_write)
          io::set_write_fault_hook(+[] {
            std::printf("worker: injected kill mid-write\n");
            std::fflush(nullptr);
            ::raise(SIGKILL);
          });
        io::save_checkpoint(cfg_path(dir, n), g, st);
        io::set_write_fault_hook(nullptr);
        std::printf("worker: wrote cfg%d (sweeps=%lld)\n", n,
                    static_cast<long long>(st.sweeps_done));
      }
      return 0;
    };
  };
  constexpr int kMaxAttempts = 5;
  for (int attempt = 0;; ++attempt) {
    comms::LaunchOptions opt;
    opt.log_dir = make_log_dir(dir, "gen", attempt);
    const auto report = comms::run_ranks(
        1,
        generation_worker(knobs.kill_sweep >= 0 && attempt == 0,
                          knobs.kill_write >= 0 && attempt == 0),
        opt);
    if (report.ok) break;
    ++observed_failures;
    std::printf("[generate] attempt %d failed: %s\n", attempt,
                report.describe().c_str());
    if (attempt + 1 >= kMaxAttempts) {
      std::printf("\nensemble pipeline: FAIL (generation never recovered)\n");
      return 1;
    }
    std::printf("[generate] relaunching worker to recover from last checkpoint\n");
  }

  // Recovered-or-uninterrupted, every checkpoint must match the reference
  // chain bitwise.
  bool generate_ok = true;
  for (int n = 0; n < nconfigs; ++n) {
    qcd::GaugeField<S> g(&grid);
    try {
      const qcd::MarkovState st = io::load_checkpoint(cfg_path(dir, n), g);
      const bool match =
          io::encode_gauge(g) == stored_bytes[static_cast<std::size_t>(n)] &&
          static_cast<long long>(st.sweeps_done) ==
              stored_sweeps[static_cast<std::size_t>(n)];
      if (!match) generate_ok = false;
      std::printf("  cfg %d: %s\n", n, match ? "bitwise identical to reference"
                                             : "MISMATCH vs reference");
    } catch (const io::IoError& e) {
      generate_ok = false;
      std::printf("  cfg %d: UNREADABLE (%s)\n", n, e.what());
    }
  }

  // --- phase 3: resume from the previous checkpoint -------------------------
  // A fresh process restarting from cfg N-2 (or, for a single-config run,
  // re-running generation) must regenerate cfg N-1 bitwise.
  bool resume_ok = false;
  {
    qcd::GaugeField<S> resumed(&grid);
    qcd::MarkovState rstate;
    if (nconfigs >= 2) {
      rstate = io::load_checkpoint(cfg_path(dir, nconfigs - 2), resumed);
    } else {
      qcd::random_gauge(SiteRNG(2018), resumed);
      rstate = fresh_state();
      qcd::advance(resumed, rstate, kTherm);
    }
    qcd::advance(resumed, rstate, kGap);
    resume_ok = io::encode_gauge(resumed) == stored_bytes.back() &&
                rstate.sweeps_done == state.sweeps_done;
    std::printf("[resume] chain restarted from checkpoint: %s\n",
                resume_ok ? "bitwise identical" : "MISMATCH");
  }

  // --- reference measurement on the in-memory final configuration ----------
  bool ref_converged = false;
  const std::vector<double> ref_corr = measure_pion(gauge, mass, &ref_converged);
  if (!ref_converged) {
    std::printf("FAIL: reference propagator did not converge\n");
    return 1;
  }

  // --- phases 4+5: redistribute over real rank processes and measure --------
  // A --crash-rank fault kills one rank mid-exchange on the first launch;
  // the survivors' typed kPeerExited verdicts end them quickly and the
  // launcher retries the whole phase.  --fault-seed transients must be
  // absorbed by the retry policy within a single launch.
  std::printf("[distribute] reloading %d configs across %d rank processes\n",
              nconfigs, ranks);
  comms::LaunchReport report;
  for (int attempt = 0;; ++attempt) {
    const bool arm_crash = knobs.crash_rank >= 0 && attempt == 0;
    comms::LaunchOptions opt;
    opt.log_dir = make_log_dir(dir, "dist", attempt);
    report = comms::run_ranks(
        ranks,
        [&](int rank, comms::SocketCommunicator& socket_comm) {
          comms::FaultSchedule sched;
          if (knobs.fault_seed != 0)
            sched = comms::FaultSchedule::seeded(knobs.fault_seed, rank);
          if (arm_crash && rank == knobs.crash_rank) {
            comms::FaultEvent crash;
            crash.op = comms::FaultOp::kSend;
            crash.at = static_cast<std::uint64_t>(knobs.crash_op);
            crash.kind = comms::FaultKind::kCrash;
            sched.events.push_back(crash);
          }
          comms::FaultyCommunicator comm(socket_comm, std::move(sched));
          const comms::RankDecomposition decomp(dims, 3, comm.size(), layout);
          for (int n = 0; n < nconfigs; ++n) {
            // Rank 0 reads the stored checkpoint; everyone gets a
            // sub-lattice (the SVMC metadata is ignored by the scatter).
            qcd::GaugeField<S> local(decomp.grid(rank));
            io::load_gauge_root(cfg_path(dir, n), decomp, comm, rank, local);

            // Re-store through rank 0 as one SVGF file, then reload it
            // through full CRC validation and scatter again.
            const std::string restored = dir + "/cfg" + std::to_string(n) + ".root.svgf";
            io::save_gauge_root(restored, decomp, comm, rank, local);
            qcd::GaugeField<S> reloaded(decomp.grid(rank));
            io::load_gauge_root(restored, decomp, comm, rank, reloaded);
            if (io::encode_gauge(reloaded) != io::encode_gauge(local)) return 10 + n;

            // Gather to rank 0 and measure against the in-memory original.
            lattice::GridCartesian global_grid(dims, layout);
            qcd::GaugeField<S> global(&global_grid);
            for (int mu = 0; mu < lattice::Nd; ++mu)
              comms::gather_root(decomp, comm, rank, reloaded.U[mu],
                                 rank == 0 ? &global.U[mu] : nullptr);
            if (rank == 0) {
              if (io::encode_gauge(global) != stored_bytes[static_cast<std::size_t>(n)])
                return 20 + n;
              const double plaq = qcd::average_plaquette(global);
              if (plaq != stored_plaq[static_cast<std::size_t>(n)]) return 30 + n;
              std::printf("  rank 0: cfg %d reloaded, plaquette %+.6f matches exactly\n",
                          n, plaq);
              if (n == nconfigs - 1) {
                bool converged = false;
                const auto corr = measure_pion(global, mass, &converged);
                if (!converged || corr != ref_corr) return 40;
                std::printf(
                    "  rank 0: pion correlator (%zu timeslices) matches exactly\n",
                    corr.size());
              }
            }
          }
          if (comm.faults_injected() > 0)
            std::printf("rank %d: absorbed %zu injected transient faults\n", rank,
                        comm.faults_injected());
          return 0;
        },
        opt);
    if (report.ok) break;
    ++observed_failures;
    std::printf("[distribute] attempt %d failed: %s\n", attempt,
                report.describe().c_str());
    if (attempt + 1 >= kMaxAttempts) break;
    std::printf("[distribute] relaunching the phase\n");
  }

  bool ok = generate_ok && resume_ok && report.ok;
  if (!report.ok) std::printf("%s\n", report.describe().c_str());
  if (knobs.any_kill()) {
    std::printf("[faults] armed kill/crash knobs caused %d observed failure(s)\n",
                observed_failures);
    if (observed_failures < 1) {
      std::printf("FAIL: a kill knob was armed but no failure was ever observed\n");
      ok = false;
    }
  }
  std::printf("\nensemble pipeline: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
