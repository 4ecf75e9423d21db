// lapack90/batch/schedule.hpp
//
// Batch scheduling policy. Two thresholds decide where the parallelism
// goes:
//
//   * Tiny batches (work estimate count * max_dim^3 below
//     detail::kTinyBatchWork) run serially on the caller. Waking a team
//     costs more than the whole batch; this keeps a serve dispatcher
//     flushing forty 8x8 solves off the pool.
//   * Small entries (largest dimension below EnvSpec::BatchGrain) are
//     distributed across the worker team, one entry per chunk. Inside a
//     worker the Level-3 runtime sees in_parallel_region() and degrades
//     to serial — per-entry parallelism, serial arithmetic per entry, so
//     each entry's result is computed by exactly one worker in a fixed
//     order and cannot depend on the worker count.
//   * Large entries (>= BatchGrain) run in a serial outer loop so the
//     threaded Level-3 path inside each entry keeps the whole team busy —
//     per-entry fan-out would serialize those gemms and lose more than
//     it gains.
//
// BatchGrain routes through ilaenv (LAPACK90_BATCH_GRAIN, or
// set_env_override(EnvSpec::BatchGrain, ...)), so tests and benches can
// force either of its regimes.
#pragma once

#include <utility>

#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/types.hpp"

namespace la::batch {

/// The per-entry/intra-entry crossover the scheduler will use right now:
/// entries whose largest dimension reaches this run sequentially with the
/// threaded Level-3 path inside; smaller entries fan out across workers.
[[nodiscard]] inline idx batch_grain() noexcept {
  return ilaenv(EnvSpec::BatchGrain, EnvRoutine::gemm, 0);
}

namespace detail {

/// Work estimate (count * max_dim^3) below which a batch runs on its
/// caller: sixty-four 8x8 solves. With the gate, bench_serve --smoke's
/// coalesced flushes of up to 32 8x8 entries run on the dispatcher;
/// without it they fan out and fail the smoke's 1.2x bound in about one
/// run in five on a 4-core host (EXPERIMENTS.md, "The batch gate, on and
/// off"). It equals the builtin gemm crossover but is deliberately not
/// ilaenv(Crossover, gemm): the team's wake-up cost and gemm's packing
/// cutoff are separate decisions, and a tuned crossover (a few hundred on
/// some hosts) must not put tiny serve flushes back on the team.
inline constexpr idx kTinyBatchWork = 32768;

/// Run body(i, tid) for every entry i in [0, count). `max_dim` is the
/// largest dimension over the batch and selects the regime (see file
/// comment). In every regime each entry is executed exactly once by
/// exactly one worker, and the arithmetic inside an entry is serial —
/// the bit-identity contract of the batch drivers rests on this.
template <class F>
void for_each_entry(idx count, idx max_dim, F&& body) {
  if (count <= 0) {
    return;
  }
  // Formed in double: count * max_dim^3 can overflow 64 bits.
  const double d = static_cast<double>(max_dim);
  const bool tiny = static_cast<double>(count) * d * d * d <
                    static_cast<double>(kTinyBatchWork);
  if (tiny || max_dim >= batch_grain()) {
    for (idx i = 0; i < count; ++i) {
      body(i, 0);
    }
    return;
  }
  parallel_for(count, std::forward<F>(body));
}

}  // namespace detail
}  // namespace la::batch
