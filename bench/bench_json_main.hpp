// Shared bench entry point: run google-benchmark with a machine-readable
// JSON report on by default. Unless the caller passes --benchmark_out
// themselves, results land in the named BENCH_*.json in the directory that
// holds the binary (the build tree), whatever the working directory, so a
// run from the source tree never overwrites the committed baselines and
// scripts can diff runs without scraping the console table.
//
// Beyond plain benchmark runs the entry point understands:
//   --tune [tune args...]   run the la::tune sweep (see tune::tune_main)
//   --check BASELINE.json   perf-regression gate: re-measure this binary's
//                           curated subset and compare (see perf_check.hpp)
#pragma once

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "lapack90/core/env.hpp"
#include "lapack90/core/parallel.hpp"
#include "lapack90/core/simd.hpp"
#include "lapack90/tune/tune.hpp"
#include "lapack90/version.hpp"

#include "perf_check.hpp"

namespace la::bench {

/// Stamp the JSON context with everything needed to tell two BENCH_*.json
/// trajectories apart after the fact: the build's ISA, the machine
/// signature the run happened on, where the tuning values came from, and
/// any LAPACK90_* knob variables that pinned values during the run.
inline void add_machine_context() {
  benchmark::AddCustomContext("lapack90_version", la::version());
  benchmark::AddCustomContext("simd_isa", la::simd_isa_name());
  benchmark::AddCustomContext("thread_backend", la::thread_backend_name());
  benchmark::AddCustomContext("machine_signature",
                              la::tune::machine_signature().str());
  benchmark::AddCustomContext("tune_source", la::tune::source());
  const char* tf = la::tune::active_file();
  if (tf != nullptr && *tf != '\0') {
    benchmark::AddCustomContext("tune_file", tf);
  }
  std::string pins;
  for (int s = 1; s <= kEnvSpecCount; ++s) {
    const auto spec = static_cast<EnvSpec>(s);
    const char* name = la::detail::env_knob_name(spec);
    if (name == nullptr) {
      continue;
    }
    const idx v =
        la::detail::env_knob(name, la::detail::env_spec_max(spec), 0);
    if (v > 0) {
      if (!pins.empty()) {
        pins += ' ';
      }
      pins += name;
      pins += '=';
      pins += std::to_string(v);
    }
  }
  if (!pins.empty()) {
    benchmark::AddCustomContext("lapack90_env_overrides", pins);
  }
}

/// `name` in the directory holding the running executable: /proc/self/exe
/// where it exists, else argv[0] resolved against the working directory.
inline std::string beside_binary(const char* argv0, const char* name) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (ec) {
    exe = fs::absolute(argv0, ec);
  }
  return (exe.parent_path() / name).string();
}

/// Shared main. `check_filter` is the curated --benchmark_filter regex the
/// perf gate re-measures in --check mode (nullptr disables --check for
/// this binary).
inline int run_with_json_default(int argc, char** argv,
                                 const char* default_out,
                                 const char* check_filter = nullptr) {
  if (argc > 1 && std::strcmp(argv[1], "--tune") == 0) {
    // Forward the remaining args: `bench_x --tune --budget 20` behaves
    // exactly like `lapack90_tune --budget 20`.
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 2; i < argc; ++i) {
      args.push_back(argv[i]);
    }
    return la::tune::tune_main(static_cast<int>(args.size()), args.data());
  }
  add_machine_context();
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) {
    if (check_filter == nullptr) {
      std::fprintf(stderr, "%s: no perf-gate filter for this binary\n",
                   argv[0]);
      return 2;
    }
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s --check BASELINE.json\n", argv[0]);
      return 2;
    }
    const std::string fresh =
        beside_binary(argv[0], default_out) + ".check";
    return run_perf_check(argv[0], argv[2], check_filter, fresh.c_str());
  }
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    out_flag = "--benchmark_out=" + beside_binary(argv[0], default_out);
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace la::bench
