// The three workloads and the per-layer probes of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every workload finishes in seconds.
  bool tiny = false;
  /// Flip one bit of one checked result, to prove the checker catches it.
  bool perturb = false;
  /// CLOCK_MONOTONIC nanoseconds when the process was launched; setup_s is
  /// measured from here.
  std::int64_t t_launch_ns = 0;
};

/// Each workload fills `rep` with setup_s, its end-to-end metrics, the load
/// account and the correctness verdict. With opt.trace it also runs the
/// traced half and the layer probes and adds the per-layer metrics.
void run_dense_solve(const Options& opt, Report& rep);
void run_serve_small(const Options& opt, Report& rep);
void run_net_window(const Options& opt, Report& rep);

/// Layer probes (traced run only). Each adds its per-layer metrics.
void probe_dense_layers(const Options& opt, Report& rep);
void probe_core_and_wire(const Options& opt, Report& rep);

/// Short traced bursts for the serving rows a workload does not produce
/// itself. serve_layers: the serve.* and gen.* rows; gen: only the gen.*
/// rows (an open-loop burst); net: the net.* rows.
void probe_serving_bursts(const Options& opt, Report& rep, bool serve_layers,
                          bool gen, bool net);

/// Time for the workload's own measurement. A traced run measures it for a
/// quarter of --seconds untraced and a quarter traced (trace.overhead_frac
/// compares the two); the layer probes follow.
[[nodiscard]] inline double workload_budget(const Options& opt) {
  return opt.trace ? opt.seconds / 4 : opt.seconds;
}

/// Setup time so far, from the launch stamp.
[[nodiscard]] inline double setup_seconds(const Options& opt) {
  return static_cast<double>(now_ns() - opt.t_launch_ns) * 1e-9;
}

}  // namespace pb
