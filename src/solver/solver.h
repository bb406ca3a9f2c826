// WilsonSolver: the one entry point for Wilson-operator solves.
//
// The paper's production cost is dominated by iterative Wilson solves
// (Sec. II-A/II-C).  This facade owns the operator setup and the
// half-checkerboard workspaces, and dispatches every algorithm x
// preconditioner combination of SolverParams that solver::supported
// admits:
//
//   kCG       x kNone          the paper's CG on the normal equations M^dag M
//   kCG       x kSchurEvenOdd  CG on Mhat^dag Mhat, half-volume fields
//   kBiCGSTAB x kSchurEvenOdd  BiCGSTAB directly on Mhat, half-volume
//   kMixedCG  x kSchurEvenOdd  double defect correction, fp32 Schur CG inside
//
// kNone runs only the paper's CG (solver/cg.h); BiCGSTAB and kMixedCG run
// only on the Schur engine, and the constructor rejects them on kNone.
//
// Every Schur solve runs one engine, SchurEngine below: the block operator
// of qcd/block.h, the Schur driver and the block CG of solver/block_cg.h,
// at width N = 1 for a single right-hand side and N = kBlockWidth for
// solve_batched's full chunks (BiCGSTAB runs the generic loop of
// solver/bicgstab.h on the N = 1 operator).  A distributed solver runs the
// same N = 1 engine on one rank's half-checkerboard slabs, with
// comms::DistributedWilsonDirac as the operator's hop provider.
//
// Each solve runs the configured algorithm once: a solve that misses its
// target reports converged == false, and nothing retries it.  Each result
// has one author per field.  The Krylov loops return their recursion
// verdict (converged, iterations, history, final residual, BiCGSTAB's
// breakdown); the caller that knows the user's system computes the true
// residual -- the Schur driver, or solve_wilson on the kNone path -- and
// the facade sets the solution norm.  kMixedCG's defect correction
// re-forms the true residual in double precision after every restart, and
// its verdict is that residual against the target.
//
// Construction pays the expensive setup once -- Schur operator data
// (half grids, stencil tables, double-stored gauge), kMixedCG's fp32
// copy of it -- and each Schur engine is built on the first solve of its
// width, so repeated solves against the same configuration (the 12
// spin-colour columns of a propagator) only pay iterations.
//
// The zero-padded even-odd formulation is not reachable from here: it is
// a test-only oracle (tests/qcd/padded_oracle.h).
#pragma once

#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "comms/distributed_wilson.h"
#include "qcd/block.h"
#include "qcd/even_odd.h"
#include "solver/bicgstab.h"
#include "solver/block_cg.h"
#include "solver/cg.h"
#include "solver/mixed_precision.h"
#include "solver/result.h"
#include "solver/workspace.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "tensor/regs.h"

namespace svelat::solver {

namespace detail {

/// Rebind a SimdComplex scalar to another real type: kMixedCG derives its
/// single-precision inner scalar from the double-precision outer one,
/// keeping the vector length and functor backend.
template <class S, class R>
struct rebind_real;
template <class T, std::size_t VLB, class Policy, class R>
struct rebind_real<simd::SimdComplex<T, VLB, Policy>, R> {
  using type = simd::SimdComplex<R, VLB, Policy>;
};
template <class S, class R>
using rebind_real_t = typename rebind_real<S, R>::type;

}  // namespace detail

template <class S>
class WilsonSolver {
 public:
  using Fermion = qcd::LatticeFermion<S>;
  /// Inner scalar of Algorithm::kMixedCG: same VL and backend, fp32 lanes.
  using InnerScalar = detail::rebind_real_t<S, float>;

  /// kMixedCG's fixed tuning: the target of each restart's fp32 solve
  /// (capped at params.max_iterations iterations), and the restart cap.
  static constexpr double kMixedInnerTolerance = 1e-4;
  static constexpr int kMixedMaxRestarts = 24;

  WilsonSolver(const qcd::GaugeField<S>& gauge, double mass, SolverParams params = {})
      : gauge_(&gauge), mass_(mass), params_(params) {
    SVELAT_ASSERT_MSG(supported(params_.algorithm, params_.preconditioner),
                      "kNone runs kCG only: kBiCGSTAB and kMixedCG run the Schur engine");
    if (!schur()) {
      dirac_.emplace(*gauge_, mass_);
      return;
    }
    eo_.emplace(*gauge_, mass_);
    if (params_.algorithm == Algorithm::kMixedCG) {
      SVELAT_ASSERT_MSG((std::is_same_v<typename S::real_type, double>),
                        "MixedCG needs a double-precision outer scalar");
      grid_f_.emplace(gauge_->grid()->fdimensions(),
                      lattice::GridCartesian::default_simd_layout(InnerScalar::Nsimd()));
      // The fp32 Schur data copies the links it reads, so the converted
      // configuration lives only while it is built.
      qcd::GaugeField<InnerScalar> gauge_f(&*grid_f_);
      for (int mu = 0; mu < lattice::Nd; ++mu)
        convert_field(gauge_f.U[mu], gauge_->U[mu]);
      eo_f_.emplace(gauge_f, mass_);
    }
  }

  /// Distributed mode: the facade over one rank's halo-exchanged Wilson
  /// operator (comms/distributed_wilson.h).  `b` and `x` are this rank's
  /// slabs.  CG and BiCGSTAB run the N = 1 Schur engine on the rank's half
  /// slabs, and every reduction is an exact ring reduction over all ranks,
  /// so every rank's SolverResult and solution slab are bitwise those of
  /// the single-rank solve with the same params on the same layout.
  /// kSchurEvenOdd (the default) is the only preconditioner: kNone has no
  /// distributed path, and kMixedCG would need a second fp32 operator per
  /// rank.
  WilsonSolver(const comms::DistributedWilsonDirac<S>& op, SolverParams params = {})
      : mass_(op.mass()), params_(params), dop_(&op) {
    SVELAT_ASSERT_MSG(params_.algorithm != Algorithm::kMixedCG,
                      "distributed solves support kCG and kBiCGSTAB only");
    SVELAT_ASSERT_MSG(schur(),
                      "distributed solves run the Schur engine: kNone is not supported");
  }

  // Operators and workspaces hold pointers to member grids; moving or
  // copying the solver would dangle them.
  WilsonSolver(const WilsonSolver&) = delete;
  WilsonSolver& operator=(const WilsonSolver&) = delete;

  const SolverParams& params() const { return params_; }
  double mass() const { return mass_; }
  const qcd::GaugeField<S>& gauge() const {
    SVELAT_ASSERT_MSG(gauge_ != nullptr,
                      "distributed solvers hold no global gauge field");
    return *gauge_;
  }
  const lattice::GridCartesian* grid() const {
    return dop_ != nullptr ? dop_->grid() : gauge_->grid();
  }

  /// The owned Schur operator (engaged for kSchurEvenOdd configurations).
  const qcd::SchurEvenOddWilson<S>& schur_operator() const {
    SVELAT_ASSERT_MSG(eo_.has_value(), "solver was not configured with kSchurEvenOdd");
    return *eo_;
  }

  /// Solve M x = b.  `x` carries the initial guess for the kNone CG; the
  /// Schur paths always start the preconditioned system from zero and
  /// overwrite both parities of `x`.  Non-convergence is reported through
  /// SolverResult::converged, never asserted.
  SolverResult solve(const Fermion& b, Fermion& x) {
    StopWatch sw;
    SolverResult res = attempt(b, x);
    res.algorithm = params_.algorithm;
    res.preconditioner = params_.preconditioner;
    res.target_residual = params_.tolerance;
    // After a comm failure the mesh is broken: the global reduction behind
    // solution_norm would throw the very error the typed verdict already
    // carries.  x is partial anyway -- report a zero norm.
    if (res.comm_status == comms::CommStatus::kOk)
      res.solution_norm = solution_norm(x);
    res.wall_seconds = sw.seconds();
    // The same reading is the "solve" region, whose calls/sec IS the
    // solves-per-second figure (the inner kernels are timed at dhop /
    // linalg granularity): one region call per facade-level solve.
    metrics::record("solve", res.wall_seconds);
    return res;
  }

  /// Width at which solve_batched runs the Schur engine: the 12
  /// spin-colour columns of a propagator, the workload the batched
  /// kernels exist for.
  static constexpr int kBlockWidth = 12;

  /// Solve M x_i = b_i for a batch of right-hand sides.  Under
  /// Algorithm::kCG x Preconditioner::kSchurEvenOdd, full chunks of
  /// kBlockWidth columns run the Schur engine at N = kBlockWidth, which
  /// loads each gauge link once for all of them; remainder columns, every
  /// other configuration and every distributed solver run solve() per
  /// column.  A chunk's column does the same arithmetic as solve() does
  /// at N = 1, so every column's solution, iterations, residual history
  /// and residuals are BITWISE those of solve() on it, whichever path it
  /// took.  Per-column convergence is independent: a column that misses
  /// its target reports converged == false without perturbing its
  /// siblings.  SolverResult::block_width records the width each column
  /// ran at.
  std::vector<SolverResult> solve_batched(const std::vector<Fermion>& b,
                                          std::vector<Fermion>& x) {
    SVELAT_ASSERT_MSG(b.size() == x.size(),
                      "solve_batched needs one solution field per rhs");
    std::vector<SolverResult> out(b.size());
    std::size_t i = 0;
    if (params_.algorithm == Algorithm::kCG && schur() && dop_ == nullptr) {
      for (; i + kBlockWidth <= b.size(); i += kBlockWidth)
        solve_block_chunk(b, x, i, out);
    }
    for (; i < b.size(); ++i) out[i] = solve(b[i], x[i]);
    return out;
  }

 private:
  bool schur() const { return params_.preconditioner == Preconditioner::kSchurEvenOdd; }

  double solution_norm(const Fermion& x) const {
    return std::sqrt(dop_ != nullptr ? dop_->global_norm2(x) : norm2(x));
  }

  /// solve()'s dispatch of the configured algorithm x preconditioner,
  /// without the facade bookkeeping ("solve" region, wall clock).
  SolverResult attempt(const Fermion& b, Fermion& x) {
    const double tol = params_.tolerance;
    const int max_it = params_.max_iterations;
    SolverResult res;
    if (dop_ != nullptr) {
      // A communication failure that survives the retry ladder surfaces as
      // a typed verdict in the result, never an abort or a hang.
      try {
        auto& e = engine(dist_, *dop_);
        res = params_.algorithm == Algorithm::kCG ? e.cg(b, x, tol, max_it)
                                                  : e.bicgstab(b, x, tol, max_it);
      } catch (const comms::CommError& err) {
        res.converged = false;
        res.comm_status = err.status();
        res.comm_detail = err.what();
      }
      return res;
    }
    switch (params_.algorithm) {
      case Algorithm::kCG:
        res = schur() ? engine(single_, *eo_).cg(b, x, tol, max_it)
                      : solve_wilson(*dirac_, b, x, tol, max_it, &kws_);
        break;
      case Algorithm::kBiCGSTAB:
        res = engine(single_, *eo_).bicgstab(b, x, tol, max_it);
        break;
      case Algorithm::kMixedCG:
        res = engine(single_, *eo_).defect_correction(b, x, engine(single_f_, *eo_f_),
                                                      tol, max_it);
        break;
    }
    return res;
  }

  /// The one owner of an N-wide Schur solve over scalar T: the block
  /// operator view over its hop provider (the single-rank Schur data or a
  /// rank's distributed operator), the driver's half-field scratch and the
  /// Krylov work-field pool.  Built on the first solve of its width and
  /// reused ever after: a warm solve constructs no fields.  Every solve
  /// runs the driver's seams: load b's parity pieces, steps 1-3 from them,
  /// store x, and step 4's full-system residual pieces.
  template <class T, int N, class Hops = qcd::SchurEvenOddWilson<T>>
  class SchurEngine {
   public:
    using Fermion = qcd::LatticeFermion<T>;
    using HalfBlock = qcd::HalfBlockFermion<T, N>;
    using Results = std::array<SolverResult, N>;

    explicit SchurEngine(const Hops& hops) : eo_(hops) {}

    /// M x_j = b_j for N columns: CG on the normal equations
    /// Mhat^dag Mhat x_e = Mhat^dag b'_e.
    Results cg(std::span<const Fermion, N> b, std::span<Fermion, N> x, double tolerance,
               int max_iterations) {
      load(b);
      Results stats = cg_steps(tolerance, max_iterations);
      store(x);
      report_true_residuals(stats);
      return stats;
    }

    /// The same for one column.
    SolverResult cg(const Fermion& b, Fermion& x, double tolerance, int max_iterations)
      requires(N == 1)
    {
      return cg(column(b), column(x), tolerance, max_iterations)[0];
    }

    /// M x = b for one column with BiCGSTAB: Mhat is not hermitian, so it
    /// solves Mhat x_e = b'_e directly -- no normal equations.
    SolverResult bicgstab(const Fermion& b, Fermion& x, double tolerance,
                          int max_iterations)
      requires(N == 1)
    {
      const auto op = [this](const HalfBlock& in, HalfBlock& out) { eo_.mhat(in, out); };
      load(column(b));
      Results stats = steps([&](const HalfBlock& b_prime, HalfBlock& x_e) {
        return Results{
            solver::bicgstab(op, b_prime, x_e, tolerance, max_iterations, &krylov_)};
      });
      store(column(x));
      report_true_residuals(stats);
      return stats[0];
    }

    /// M x = b for one column by kMixedCG's defect correction: b, x (from
    /// zero) and the full-system residual r are this engine's half pieces.
    /// Each restart runs `inner`'s (fp32) steps 1-3 on r, adds the
    /// correction to x and re-forms r with two parity sweeps.
    template <class Inner>
    SolverResult defect_correction(const Fermion& b, Fermion& x, Inner& inner,
                                   double tolerance, int max_iterations)
      requires(N == 1)
    {
      load(column(b));
      const double b2 = norm2(b_e_) + norm2(b_o_);
      SVELAT_ASSERT_MSG(b2 > 0.0, "mixed CG needs a non-zero right-hand side");
      SolverResult stats;
      stats.rhs_norm = std::sqrt(b2);
      x_e_.set_zero();  // x = 0, so r = b
      x_o_.set_zero();
      lattice::block_copy(tmp_e_, b_e_);
      lattice::block_copy(tmp_o_, b_o_);
      double rel = 1.0;
      stats.residual_history.push_back(rel);
      while (rel > tolerance && stats.iterations < kMixedMaxRestarts) {
        convert_field(inner.b_e_, tmp_e_);
        convert_field(inner.b_o_, tmp_o_);
        stats.inner_iterations +=
            inner.cg_steps(kMixedInnerTolerance, max_iterations)[0].iterations;
        convert_field(tmp_e_, inner.x_e_);
        convert_field(tmp_o_, inner.x_o_);
        lattice::block_add(x_e_, tmp_e_);
        lattice::block_add(x_o_, tmp_o_);
        eo_.dhop_oe(x_e_, tmp_o_);
        rel = std::sqrt(residual(/*minus_mx=*/true)[0] / b2);
        stats.residual_history.push_back(rel);
        ++stats.iterations;
      }
      stats.final_residual = rel;
      stats.true_residual = rel;
      stats.converged = rel <= tolerance;
      store(column(x));
      return stats;
    }

   private:
    template <class, int, class>
    friend class SchurEngine;  // kMixedCG's double engine fills the fp32 one

    template <class F>
    static std::span<F, 1> column(F& f) { return std::span<F, 1>(&f, 1); }

    /// Loads the parity pieces of the right-hand sides.
    void load(std::span<const Fermion, N> b) {
      for (int j = 0; j < N; ++j) {
        const Fermion& bj = b[static_cast<std::size_t>(j)];
        lattice::pick_checkerboard(bj, b_e_, j);
        lattice::pick_checkerboard(bj, b_o_, j);
      }
    }

    /// Steps 1-3 of the Schur solve of the loaded pieces, on
    /// half-volume fields only.  `krylov_solve` solves Mhat x_e = b'_e
    /// from the zero x_e it is handed.  Every shared coefficient is
    /// column-independent and every per-column reduction follows the
    /// single-column tree, so column j's numbers are bitwise the N = 1
    /// solve's.
    template <class KrylovSolve>
    Results steps(const KrylovSolve& krylov_solve) {
      const double d = eo_.diag();

      // 1. b'_e = b_e + (1/(2(4+m))) Dh_eo b_o     (Meo = -Dh_eo/2)
      eo_.dhop_eo(b_o_, tmp_e_);
      lattice::block_axpy(b_prime_, 0.5 / d, tmp_e_, b_e_);

      // 2. Solve Mhat x_e = b'_e on the even half lattice from zero.
      x_e_.set_zero();
      Results stats = krylov_solve(b_prime_, x_e_);

      // 3. x_o = (b_o + (1/2) Dh_oe x_e) / (4+m).  tmp_o keeps Dh_oe x_e
      //    for the odd residual of step 4.
      eo_.dhop_oe(x_e_, tmp_o_);
      lattice::block_axpy(x_o_, 0.5, tmp_o_, b_o_);
      lattice::block_scale(x_o_, 1.0 / d);
      return stats;
    }

    /// Steps 1-3 with CG on the normal equations.
    Results cg_steps(double tolerance, int max_iterations) {
      return steps([&](const HalfBlock& b_prime, HalfBlock& x_e) {
        HalfBlock& rhs = krylov_.get(SolverWorkspace<HalfBlock>::kRhs, eo_.even_grid());
        eo_.mhat_dag(b_prime, rhs);
        return block_conjugate_gradient(eo_, krylov_, rhs, x_e, tolerance,
                                        max_iterations);
      });
    }

    /// Stores the solution pieces into both parities of x.
    void store(std::span<Fermion, N> x) const {
      for (int j = 0; j < N; ++j) {
        Fermion& xj = x[static_cast<std::size_t>(j)];
        lattice::set_checkerboard(xj, x_e_, j);
        lattice::set_checkerboard(xj, x_o_, j);
      }
    }

    /// Step 4: the full-system residual pieces and each column's
    /// |r|^2, formed in place over the hop result in tmp_p (tmp_o must hold
    /// Dh_oe x_e): r_p = b_p - (4+m) x_p + (1/2) Dh_{p,1-p} x_{1-p}.  With
    /// `minus_mx` it is rounded as b - M x, with M x formed as
    /// qcd::WilsonDirac::m forms it: kMixedCG's corrections are then bitwise
    /// those of a defect correction on the full-lattice operator.  Each
    /// element is formed in registers by the primitives of the SimdComplex
    /// expression `b + xc * x + hc * r` (`b - (xc * x + hc * r)` with
    /// `minus_mx`), so it holds that expression's bits.
    std::array<double, N> residual(bool minus_mx = false) {
      eo_.dhop_eo(x_o_, tmp_e_);
      const double sign = minus_mx ? -1.0 : 1.0;
      const T xc(typename T::scalar_type(-sign * eo_.diag(), 0.0));
      const T hc(typename T::scalar_type(sign * 0.5, 0.0));
      using R = simd::RegsOf<T>;
      const auto form = [&](const HalfBlock& bp, const HalfBlock& xp, HalfBlock& rp) {
        thread_for(rp.osites(), [&](std::int64_t h) {
          const typename R::pred pg = R::ptrue();
          const typename R::reg z = R::zero();
          const typename R::reg xcr = R::load(pg, xc.raw());
          const typename R::reg hcr = R::load(pg, hc.raw());
          const qcd::SpinColourVector<T>* bs = bp.site(h);
          const qcd::SpinColourVector<T>* xs = xp.site(h);
          qcd::SpinColourVector<T>* rs = rp.site(h);
          for (int j = 0; j < N; ++j)
            tensor::for_each_element(
                [&](int, const T& be, const T& xe, T& re) {
                  const typename R::reg bv = R::load(pg, be.raw());
                  const typename R::reg xt = R::mult(pg, z, xcr, R::load(pg, xe.raw()));
                  const typename R::reg ht = R::mult(pg, z, hcr, R::load(pg, re.raw()));
                  R::store(pg, re.raw(),
                           minus_mx ? R::sub(pg, bv, R::add(pg, xt, ht))
                                    : R::add(pg, R::add(pg, bv, xt), ht));
                },
                bs[j], xs[j], rs[j]);
        });
      };
      form(b_e_, x_e_, tmp_e_);
      form(b_o_, x_o_, tmp_o_);
      const std::array<double, N> re2 = lattice::block_norm2(tmp_e_);
      const std::array<double, N> ro2 = lattice::block_norm2(tmp_o_);
      std::array<double, N> r2;
      for (std::size_t u = 0; u < N; ++u) r2[u] = re2[u] + ro2[u];
      return r2;
    }

    /// Each column's true residual and |b|.
    void report_true_residuals(Results& stats) {
      const std::array<double, N> r2 = residual();
      const std::array<double, N> be2 = lattice::block_norm2(b_e_);
      const std::array<double, N> bo2 = lattice::block_norm2(b_o_);
      for (std::size_t u = 0; u < N; ++u) {
        const double b2 = be2[u] + bo2[u];
        stats[u].true_residual = std::sqrt(r2[u] / b2);
        stats[u].rhs_norm = std::sqrt(b2);
      }
    }

    qcd::BlockSchurEvenOddWilson<T, N, Hops> eo_;
    // The driver's scratch: parity pieces of the right-hand sides and the
    // solutions, the even Schur right-hand sides, and the hop results that
    // become the true-residual pieces.
    HalfBlock b_e_{eo_.even_grid()}, b_o_{eo_.odd_grid()}, b_prime_{eo_.even_grid()};
    HalfBlock x_e_{eo_.even_grid()}, x_o_{eo_.odd_grid()};
    HalfBlock tmp_e_{eo_.even_grid()}, tmp_o_{eo_.odd_grid()};
    SolverWorkspace<HalfBlock> krylov_;
  };

  /// The engine in `slot`, built over `hops` on first use.
  template <class T, int N, class Hops>
  static SchurEngine<T, N, Hops>& engine(std::optional<SchurEngine<T, N, Hops>>& slot,
                                         const Hops& hops) {
    if (!slot) slot.emplace(hops);
    return *slot;
  }

  /// One full-width batched solve of columns [base_i, base_i +
  /// kBlockWidth): the engine's CG at N = kBlockWidth, then each column's
  /// report.  Mirrors solve()'s facade bookkeeping with a "solve_block"
  /// region (one call per CHUNK; wall_seconds is apportioned evenly across
  /// the chunk's columns).
  void solve_block_chunk(const std::vector<Fermion>& b, std::vector<Fermion>& x,
                         std::size_t base_i, std::vector<SolverResult>& out) {
    StopWatch sw;
    std::array<SolverResult, kBlockWidth> stats = engine(block_, *eo_).cg(
        std::span<const Fermion, kBlockWidth>(b.data() + base_i, kBlockWidth),
        std::span<Fermion, kBlockWidth>(x.data() + base_i, kBlockWidth),
        params_.tolerance, params_.max_iterations);
    for (int j = 0; j < kBlockWidth; ++j) {
      const auto u = static_cast<std::size_t>(j);
      stats[u].solution_norm = solution_norm(x[base_i + u]);
    }
    const double secs = sw.seconds();
    metrics::record("solve_block", secs);
    for (int j = 0; j < kBlockWidth; ++j) {
      const auto u = static_cast<std::size_t>(j);
      SolverResult& r = stats[u];
      r.algorithm = params_.algorithm;
      r.preconditioner = params_.preconditioner;
      r.target_residual = params_.tolerance;
      r.block_width = kBlockWidth;
      r.wall_seconds = secs / kBlockWidth;
      out[base_i + u] = r;
    }
  }

  const qcd::GaugeField<S>* gauge_ = nullptr;  ///< null in distributed mode
  double mass_;
  SolverParams params_;
  /// Distributed mode: the externally owned halo-exchanged operator
  /// (null for the classic gauge-field constructors) and the N = 1 Schur
  /// engine over it.
  const comms::DistributedWilsonDirac<S>* dop_ = nullptr;
  std::optional<SchurEngine<S, 1, comms::DistributedWilsonDirac<S>>> dist_;

  // Engaged per configuration (see constructor): only what the chosen
  // algorithm x preconditioner combination needs is built.
  std::optional<qcd::WilsonDirac<S>> dirac_;
  std::optional<qcd::SchurEvenOddWilson<S>> eo_;
  /// Schur engines, each built on the first solve of its width: solve()
  /// runs N = 1, solve_batched's full chunks N = kBlockWidth.
  std::optional<SchurEngine<S, 1>> single_;
  std::optional<SchurEngine<S, kBlockWidth>> block_;

  // kMixedCG's fp32 grid and Schur data, built at construction, and its
  // fp32 engine, built on the first solve.
  std::optional<lattice::GridCartesian> grid_f_;
  std::optional<qcd::SchurEvenOddWilson<InnerScalar>> eo_f_;
  std::optional<SchurEngine<InnerScalar, 1>> single_f_;

  // Krylov work-field pool (solver/workspace.h) of the full-lattice CG
  // (the Schur engines hold their own).  Populated lazily on the first
  // solve and reused ever after: a warm solve() constructs no fermion
  // fields (pinned by tests/solver/test_allocation.cpp).
  SolverWorkspace<Fermion> kws_;
};

}  // namespace svelat::solver
