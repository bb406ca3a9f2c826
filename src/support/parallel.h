// Thread-level parallelism over outer-site loops.
//
// Grid pairs its SIMD abstraction with OpenMP threading over the outer
// sites (paper Sec. II-C: "parallelism at the thread level" sits between
// SIMD and MPI in the decomposition).  This header is svelat's equivalent:
//
//   thread_for(n, [&](std::int64_t i) { ... });   // i = 0..n-1, each once
//   parallel_region([&] { ... });                 // run body on every thread
//   parallel_reduce(n, zero, term);               // deterministic sum
//
// Built on OpenMP when the build enables it (SVELAT_USE_OPENMP, see
// BUILDING.md); otherwise every construct degrades to the serial loop with
// identical semantics.
//
// Two invariants the rest of the framework relies on:
//
//  1. *Deterministic reductions.*  parallel_reduce accumulates fixed-size
//     chunks (kReduceChunk sites) in index order and then sums the chunk
//     partials in chunk order.  The floating-point grouping therefore
//     depends only on n -- never on OMP_NUM_THREADS -- so norms, inner
//     products and CG residual histories are bitwise identical from 1
//     thread to N threads to the OpenMP-free build.
//
//  2. *Instruction-count transparency.*  The SVE simulator tallies
//     instructions per thread (sve_counters.h).  Worker threads absorb
//     their deltas back into the calling thread when a construct ends, so
//     a CounterScope around a threaded loop observes exactly the counts
//     the serial loop would have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(SVELAT_USE_OPENMP) && defined(_OPENMP)
#include <omp.h>
#define SVELAT_OPENMP_ACTIVE 1
#endif

// parallel.h sits in support/ but reaches up into sve/ for the counter
// merge and the tracer check; both headers are self-contained, so no
// include cycle.
#include "support/aligned.h"
#include "sve/sve_counters.h"
#include "sve/sve_trace.h"

namespace svelat {

/// Threads a parallel construct may use (1 without OpenMP).
inline int max_threads() {
#if defined(SVELAT_OPENMP_ACTIVE)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Index of the calling thread within a parallel_region (0 outside).
inline int thread_num() {
#if defined(SVELAT_OPENMP_ACTIVE)
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// True when called from inside an active parallel construct.
inline bool in_parallel_region() {
#if defined(SVELAT_OPENMP_ACTIVE)
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Process-wide serial override.  A child forked from a process whose
/// OpenMP runtime already spawned a thread team must never enter another
/// parallel region (libgomp is not fork-safe); the socket-transport rank
/// launcher (comms/socket.h) sets this immediately after fork().  The
/// deterministic-reduction invariant (1) below guarantees serial results
/// are bitwise identical to threaded ones, so flipping this flag never
/// changes a value.
inline bool& force_serial() {
  static bool flag = false;
  return flag;
}
inline void set_force_serial(bool on) { force_serial() = on; }

/// RAII: pin the team size for a scope (tests compare 1-thread vs
/// N-thread runs bitwise).  No-op in the serial build.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : previous_(max_threads()) { set(std::max(1, n)); }
  ~ThreadCountGuard() { set(previous_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  static void set(int n) {
#if defined(SVELAT_OPENMP_ACTIVE)
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  int previous_;
};

namespace detail {

#if defined(SVELAT_OPENMP_ACTIVE)
/// True while the calling thread is executing a thread_for body; a
/// thread_for encountered there must not emit another worksharing
/// construct (illegal nesting) and runs its range serially instead.
inline bool& in_worksharing() {
  thread_local bool flag = false;
  return flag;
}
#endif

/// Threading would scatter trace lines across worker-thread tracers (the
/// tracer TLS is per thread and, unlike the counters, ordered output can't
/// be merged after the fact) -- so traced loops run serially.
inline bool must_serialize() {
  return force_serial() || sve::detail::tracing() || max_threads() == 1;
}

/// RAII: on destruction, absorb the worker threads' SVE instruction-count
/// deltas into the calling thread (invariant 2 above).  The calling thread
/// is team member 0 and counts into its own tally directly.
class CounterMerge {
 public:
  explicit CounterMerge(int num_threads)
      : deltas_(static_cast<std::size_t>(num_threads)) {}
  ~CounterMerge() {
    for (std::size_t t = 1; t < deltas_.size(); ++t) sve::absorb_counters(deltas_[t]);
  }
  CounterMerge(const CounterMerge&) = delete;
  CounterMerge& operator=(const CounterMerge&) = delete;

  /// Called by each non-zero team member after its share of the work.
  void record(int thread, const sve::InsnCounters& delta) {
    if (thread != 0) deltas_[static_cast<std::size_t>(thread)] = delta;
  }

 private:
  std::vector<sve::InsnCounters> deltas_;
};

}  // namespace detail

/// Run body() once on every thread of a fresh team (serially: once).
/// Inside the body, thread_for work-shares across this team, so
/// region-level setup can be combined with shared loops -- every thread
/// of the team must reach each such thread_for (OpenMP worksharing rule).
template <class F>
void parallel_region(F&& body) {
#if defined(SVELAT_OPENMP_ACTIVE)
  if (!in_parallel_region() && !detail::must_serialize()) {
    detail::CounterMerge merge(max_threads());
#pragma omp parallel
    {
      const sve::CounterScope scope;
      body();
      merge.record(thread_num(), scope.delta());
    }
    return;
  }
#endif
  body();
}

/// f(i) for i = 0..n-1, each index exactly once, split across threads.
/// Iterations must be independent (distinct i never write the same data).
/// Called from a parallel_region body it work-shares across the enclosing
/// team; called from inside another thread_for body it runs serially.
template <class F>
void thread_for(std::int64_t n, F&& f) {
#if defined(SVELAT_OPENMP_ACTIVE)
  if (n > 1 && !detail::must_serialize()) {
    if (!in_parallel_region()) {
      detail::CounterMerge merge(max_threads());
#pragma omp parallel
      {
        const sve::CounterScope scope;
        detail::in_worksharing() = true;
#pragma omp for schedule(static)
        for (std::int64_t i = 0; i < n; ++i) f(i);
        detail::in_worksharing() = false;
        merge.record(thread_num(), scope.delta());
      }
      return;
    }
    if (!detail::in_worksharing()) {
      // Orphaned worksharing construct: split the range over the team of
      // the enclosing parallel_region (counters are absorbed when that
      // region ends).
      detail::in_worksharing() = true;
#pragma omp for schedule(static)
      for (std::int64_t i = 0; i < n; ++i) f(i);
      detail::in_worksharing() = false;
      return;
    }
  }
#endif
  for (std::int64_t i = 0; i < n; ++i) f(i);
}

/// Sites per reduction chunk.  Fixed (never derived from the thread count)
/// so the floating-point summation tree is a function of n alone.
inline constexpr std::int64_t kReduceChunk = 64;

namespace detail {

/// The chunk partials of a reduction: term(i) for i in [lo, hi) folded in
/// kReduceChunk-sized chunks from lo (the last may be short), each chunk
/// from zero in index order, threaded over chunks.  Returns per-thread
/// scratch (grows once, reused across calls) so solver-loop reductions
/// stay allocation-free after warm-up.  Not reentrant: term() must not
/// itself reduce over the same T.
template <class T, class F>
const AlignedVector<T>& chunk_partials(std::int64_t lo, std::int64_t hi, const T& zero,
                                       F& term) {
  const std::int64_t chunks = (hi - lo + kReduceChunk - 1) / kReduceChunk;
  // The local reference is essential: lambdas don't capture thread_local
  // variables, so chunk_sum must reach the *caller's* buffer through a
  // captured automatic variable, not re-resolve TLS on each worker.
  thread_local AlignedVector<T> partial_tls;
  AlignedVector<T>& partial = partial_tls;
  partial.assign(static_cast<std::size_t>(chunks), zero);
  const auto chunk_sum = [&](std::int64_t c) {
    const std::int64_t begin = lo + c * kReduceChunk;
    const std::int64_t end = std::min(hi, begin + kReduceChunk);
    T acc = zero;
    for (std::int64_t i = begin; i < end; ++i) acc += term(i);
    partial[static_cast<std::size_t>(c)] = acc;
  };
  if (in_parallel_region()) {
    // The partial vector is private to the calling thread; work-sharing
    // the chunks across the team would leave most slots zero.  Same
    // chunked tree, computed locally.
    for (std::int64_t c = 0; c < chunks; ++c) chunk_sum(c);
  } else {
    thread_for(chunks, chunk_sum);
  }
  return partial;
}

}  // namespace detail

/// Deterministic parallel sum: total of term(i) for i = 0..n-1, grouped in
/// kReduceChunk-sized chunks (invariant 1 above).  T needs operator+= and
/// copy construction; `zero` is the additive identity.
template <class T, class F>
T parallel_reduce(std::int64_t n, const T& zero, F&& term) {
  if (n <= kReduceChunk) {
    T acc = zero;
    for (std::int64_t i = 0; i < n; ++i) acc += term(i);
    return acc;
  }
  T total = zero;
  for (const T& p : detail::chunk_partials(0, n, zero, term))
    total += p;  // chunk order: fixed grouping
  return total;
}

/// Transport of ring_reduce across ranks: the carry travels rank 0 -> 1 ->
/// ... -> R-1, and rank R-1 broadcasts the total.  comms/ implements it
/// over a Communicator; a failed exchange throws (comms::CommError), so a
/// reduction over a broken ring never returns a value.
class ReduceRing {
 public:
  virtual ~ReduceRing() = default;
  virtual int rank() const = 0;
  virtual int ranks() const = 0;
  /// Receive the carry, `bytes` long, from rank - 1.
  virtual void recv_carry(void* data, std::size_t bytes) const = 0;
  /// Send the carry to rank + 1.
  virtual void send_carry(const void* data, std::size_t bytes) const = 0;
  /// Rank R-1 sends `data` to every other rank; the others receive into it.
  virtual void broadcast(void* data, std::size_t bytes) const = 0;
};

/// parallel_reduce over the concatenation of every rank's n_r terms, in rank
/// order: bitwise the single-process sum of the same terms, at any rank
/// count.  Chunk boundaries are counted GLOBALLY, so a chunk may straddle
/// ranks: a carry {total, open chunk, count} rides the ring, each rank first
/// finishes the chunk its predecessor left open, then folds its own whole
/// chunks (threadable: partials from zero, summed in chunk order), then
/// hands the tail on.  Rank R-1 folds the last open chunk and broadcasts.
/// Without a ring (or on one rank) this is parallel_reduce.  T must be
/// trivially copyable: the carry crosses the wire as bytes.
template <class T, class F>
T ring_reduce(const ReduceRing* ring, std::int64_t n, const T& zero, F&& term) {
  if (ring == nullptr || ring->ranks() == 1) return parallel_reduce(n, zero, term);
  static_assert(std::is_trivially_copyable_v<T>, "the carry crosses the wire as bytes");
  T total = zero;
  T chunk = zero;
  std::int64_t count = 0;  // terms folded into the open chunk
  std::uint8_t carry[2 * sizeof(T) + sizeof(std::int64_t)];
  if (ring->rank() != 0) {
    ring->recv_carry(carry, sizeof carry);
    std::memcpy(&total, carry, sizeof(T));
    std::memcpy(&chunk, carry + sizeof(T), sizeof(T));
    std::memcpy(&count, carry + 2 * sizeof(T), sizeof count);
  }

  // Finish the predecessor's open chunk term by term.
  std::int64_t i = 0;
  for (; i < n && count != 0; ++i) {
    chunk += term(i);
    if (++count == kReduceChunk) {
      total += chunk;
      chunk = zero;
      count = 0;
    }
  }
  // Whole chunks, each folded from zero: parallel_reduce's tree.
  if (const std::int64_t end = i + (n - i) / kReduceChunk * kReduceChunk; end > i) {
    for (const T& p : detail::chunk_partials(i, end, zero, term)) total += p;
    i = end;
  }
  // The trailing partial chunk rides the carry to the successor.
  for (; i < n; ++i) {
    chunk += term(i);
    ++count;
  }

  T result = zero;
  if (ring->rank() != ring->ranks() - 1) {
    std::memcpy(carry, &total, sizeof(T));
    std::memcpy(carry + sizeof(T), &chunk, sizeof(T));
    std::memcpy(carry + 2 * sizeof(T), &count, sizeof count);
    ring->send_carry(carry, sizeof carry);
  } else {
    if (count != 0) total += chunk;
    result = total;
  }
  ring->broadcast(&result, sizeof result);
  return result;
}

}  // namespace svelat
