// perfbench: one workload per process. Prints human-readable lines to
// stderr and, as the last line of stdout, one JSON object with the run's
// context, metrics (name, value, unit), load account and verdict. The
// Python driver (perfbench/run.py) builds this program, launches it, and
// turns that line into the benchmark's result line.
//
//   perfbench --workload dense_solve|serve_small|net_window --seed N
//             --seconds S [--trace 0|1] [--tiny] [--perturb]
//             [--launch-ns T] [--out DIR]
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "lapack90/lapack90.hpp"
#include "lapack90/tune/tune.hpp"
#include "workloads.hpp"

extern char** environ;

namespace pb {

bool Tracer::write_chrome(const std::string& path, std::size_t cap) const {
  std::vector<const SpanRec*> spans = all();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec* a, const SpanRec* b) { return a->t0 < b->t0; });
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  const std::int64_t base = spans.empty() ? 0 : spans.front()->t0;
  const std::size_t n = std::min(cap, spans.size());
  f << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_total\":"
    << spans.size() << ",\"spans_written\":" << n << "},\"traceEvents\":[\n";
  char line[512];
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = *spans[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, s.layer,
                  s.tid, static_cast<double>(s.t0 - base) * 1e-3,
                  static_cast<double>(s.t1 - s.t0) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    f << line;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

}  // namespace pb

namespace {

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string num(double v) {
  char b[64];
  std::snprintf(b, sizeof b, "%.17g", v);
  return b;
}

/// Every LAPACK90_* / OMP_* variable that is set, as a JSON object.
std::string recorded_env() {
  std::string o = "{";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("LAPACK90_", 0) != 0 && kv.rfind("OMP_", 0) != 0) {
      continue;
    }
    const auto eq = kv.find('=');
    o += (first ? "" : ",") + json_str(kv.substr(0, eq)) + ":" +
         json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    first = false;
  }
  return o + "}";
}

/// The traced run's per-span table: for each span name its layer, count,
/// total and self time (total minus the time its child spans cover) and
/// median duration. One note line per name, sorted by total time.
void add_span_table(pb::Report& rep) {
  const std::vector<const pb::SpanRec*> spans = pb::Tracer::get().all();
  std::unordered_map<std::uint64_t, const char*> parents;
  for (const pb::SpanRec* s : spans) {
    if (s->parent != 0) {
      parents.emplace(s->parent, nullptr);
    }
  }
  for (const pb::SpanRec* s : spans) {
    const auto it = parents.find(s->id);
    if (it != parents.end()) {
      it->second = s->name;
    }
  }
  struct Agg {
    const char* layer = "";
    double total_ms = 0, child_ms = 0;
    std::vector<double> us;
  };
  std::map<std::string, Agg> by_name;
  for (const pb::SpanRec* s : spans) {
    const double ms = static_cast<double>(s->t1 - s->t0) * 1e-6;
    Agg& a = by_name[s->name];
    a.layer = s->layer;
    a.total_ms += ms;
    a.us.push_back(ms * 1e3);
    if (s->parent != 0) {
      const char* pname = parents[s->parent];
      if (pname != nullptr) {
        by_name[pname].child_ms += ms;
      }
    }
  }
  std::vector<std::pair<std::string, Agg*>> rows;
  for (auto& [name, a] : by_name) {
    rows.emplace_back(name, &a);
  }
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second->total_ms > y.second->total_ms;
  });
  for (const auto& [name, a] : rows) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "span %-26s %-8s n=%-8zu total_ms=%-12.3f self_ms=%-12.3f "
                  "p50_us=%.3f",
                  name.c_str(), a->layer, a->us.size(), a->total_ms,
                  a->total_ms - a->child_ms, pb::median(a->us));
    rep.note(line);
  }
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dense_solve|serve_small|net_window "
               "--seed N --seconds S [--trace 0|1] [--tiny] [--perturb]"
               " [--launch-ns T] [--out DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The tuning file is pinned off before the first ilaenv query, so a
  // tune-*.conf left in the user's cache cannot change what is measured.
  setenv("LAPACK90_TUNE_FILE", "off", 1);

  pb::Options opt;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      opt.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--launch-ns" && has) {
      opt.t_launch_ns = std::strtoll(argv[++i], nullptr, 10);
    } else if (a == "--out" && has) {
      out_dir = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb") {
      opt.perturb = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.t_launch_ns == 0) {
    opt.t_launch_ns = pb::now_ns();
  }
  if (opt.seconds <= 0.0) {
    return usage(argv[0]);
  }

  pb::Report rep;
  if (opt.workload == "dense_solve") {
    pb::run_dense_solve(opt, rep);
  } else if (opt.workload == "serve_small") {
    pb::run_serve_small(opt, rep);
  } else if (opt.workload == "net_window") {
    pb::run_net_window(opt, rep);
  } else {
    return usage(argv[0]);
  }
  rep.add("peak_rss_mb", peak_rss_mib(), "MiB");
  if (opt.trace) {
    // Layers the workload does not drive itself get a short traced burst,
    // so every traced run reports every per-layer row.
    const bool dense = opt.workload == "dense_solve";
    const pb::TraceScope scope;
    pb::probe_dense_layers(opt, rep);
    pb::probe_serving_bursts(opt, rep, dense,
                             opt.workload == "net_window",
                             opt.workload != "net_window");
    pb::probe_core_and_wire(opt, rep);
    add_span_table(rep);
    if (!out_dir.empty()) {
      const std::string path = out_dir + "/trace-" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".json";
      if (pb::Tracer::get().write_chrome(path, 200000)) {
        rep.note("chrome trace: " + path);
      }
    }
  }

  const la::tune::MachineSignature sig = la::tune::machine_signature();
  std::ostringstream ctx;
  ctx << "{\"workload\":" << json_str(opt.workload) << ",\"seed\":" << opt.seed
      << ",\"seconds\":" << num(opt.seconds)
      << ",\"trace\":" << (opt.trace ? 1 : 0)
      << ",\"tiny\":" << (opt.tiny ? "true" : "false")
      << ",\"machine_signature\":" << json_str(sig.str())
      << ",\"isa\":" << json_str(la::simd_isa_name())
      << ",\"thread_backend\":" << json_str(la::thread_backend_name())
      << ",\"workers\":" << la::num_threads()
      << ",\"hardware_threads\":" << la::hardware_threads()
      << ",\"version\":" << json_str(la::version())
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"env\":" << recorded_env() << "}";

  std::ostringstream o;
  o << "{\"context\":" << ctx.str() << ",\"correct\":"
    << (rep.correct ? "true" : "false") << ",\"attempted\":" << rep.attempted
    << ",\"failed\":" << rep.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& m = rep.metrics[i];
    o << (i == 0 ? "" : ",") << json_str(m.name) << ":{\"value\":"
      << num(m.value) << ",\"unit\":" << json_str(m.unit) << "}";
  }
  o << "},\"notes\":[";
  for (std::size_t i = 0; i < rep.notes.size(); ++i) {
    o << (i == 0 ? "" : ",") << json_str(rep.notes[i]);
  }
  o << "]}";
  for (const auto& nline : rep.notes) {
    std::fprintf(stderr, "perfbench: %s\n", nline.c_str());
  }
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
  return 0;
}
