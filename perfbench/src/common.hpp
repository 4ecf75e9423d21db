// Shared pieces of the perfbench program: the seeded input generator,
// order statistics, the metric sink, and the in-memory span tracer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using clk = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clk::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double secs_since(std::int64_t t0) noexcept {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// xoshiro256** seeded through splitmix64: the only source of inputs, so a
/// seed fixes every matrix, job mix and arrival schedule.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept {
    for (auto& w : s_) {
      seed += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() noexcept {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [-1, 1).
  double sym() noexcept { return 2.0 * uniform() - 1.0; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

/// Order statistic by linear interpolation (the same rule as numpy's
/// default), on a copy. 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * f;
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Named metrics with units, in insertion order, plus the load account
/// (ops attempted / failed) and the correctness verdict of one run.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Lines of context (load accounting per phase, sample counts) that go
  /// to the log and the report file but not into the metric set.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Add a metric; a second value under the same name replaces the first.
  void add(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.name == name) {
        std::fprintf(stderr, "perfbench: metric %s reported twice\n",
                     name.c_str());
        m = {name, value, unit};
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  }
  void note(const std::string& s) { notes.push_back(s); }
};

// ---------------------------------------------------------------------------
// Span tracer. Spans are recorded from the benchmark's own code around the
// calls it makes into each layer; nothing inside the library is
// instrumented. Each thread appends to its own buffer (no lock on the hot
// path); buffers live until the process writes them out at exit.

struct SpanRec {
  const char* name;
  const char* layer;
  std::int64_t t0;
  std::int64_t t1;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t op;      // request / call id shared by related spans
  int tid;
};

class Tracer {
 public:
  static Tracer& get() {
    static Tracer t;
    return t;
  }
  [[nodiscard]] bool on() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  void enable(bool v) noexcept { on_.store(v, std::memory_order_relaxed); }

  struct ThreadBuf {
    std::vector<SpanRec> spans;
    std::vector<std::uint64_t> stack;  // open span ids (parent chain)
    int tid = 0;
  };

  ThreadBuf& local() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      buf = bufs_.back().get();
      buf->tid = static_cast<int>(bufs_.size());
      buf->spans.reserve(1 << 16);
    }
    return *buf;
  }

  std::uint64_t next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Record a span whose interval was measured elsewhere (e.g. a queue
  /// wait reconstructed from a serve::JobResult).
  void record(const char* name, const char* layer, std::int64_t t0,
              std::int64_t t1, std::uint64_t op) {
    if (!on()) {
      return;
    }
    ThreadBuf& b = local();
    const std::uint64_t parent = b.stack.empty() ? 0 : b.stack.back();
    b.spans.push_back({name, layer, t0, t1, next_id(), parent, op, b.tid});
  }

  /// Every span recorded so far, all threads (call after workers joined).
  [[nodiscard]] std::vector<const SpanRec*> all() const {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<const SpanRec*> out;
    for (const auto& b : bufs_) {
      for (const auto& s : b->spans) {
        out.push_back(&s);
      }
    }
    return out;
  }

  /// Durations (microseconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const {
    std::vector<double> out;
    const std::string key = name;
    for (const SpanRec* s : all()) {
      if (key == s->name) {
        out.push_back(static_cast<double>(s->t1 - s->t0) * 1e-3);
      }
    }
    return out;
  }

  /// Write the spans as Chrome trace-event JSON (complete "X" events,
  /// viewable in Perfetto). At most `cap` spans are written, the earliest
  /// first; the file says how many were left out.
  bool write_chrome(const std::string& path, std::size_t cap) const;

 private:
  Tracer() = default;
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;  // guards bufs_ (registration and readout)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Tracing on for a scope; the previous setting comes back at its end.
class TraceScope {
 public:
  explicit TraceScope(bool on = true) : prev_(Tracer::get().on()) {
    Tracer::get().enable(on);
  }
  ~TraceScope() { Tracer::get().enable(prev_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool prev_;
};

/// RAII span around one call into a layer. Costs one relaxed load when
/// tracing is off.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t op = 0) {
    Tracer& tr = Tracer::get();
    if (!tr.on()) {
      return;
    }
    buf_ = &tr.local();
    name_ = name;
    layer_ = layer;
    op_ = op;
    id_ = tr.next_id();
    parent_ = buf_->stack.empty() ? 0 : buf_->stack.back();
    buf_->stack.push_back(id_);
    t0_ = now_ns();
  }
  ~Span() {
    if (buf_ == nullptr) {
      return;
    }
    const std::int64_t t1 = now_ns();
    buf_->stack.pop_back();
    buf_->spans.push_back({name_, layer_, t0_, t1, id_, parent_, op_,
                           buf_->tid});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  const char* name_ = nullptr;
  const char* layer_ = nullptr;
  std::uint64_t op_ = 0, id_ = 0, parent_ = 0;
  std::int64_t t0_ = 0;
};

/// Wall time of one call in milliseconds, recorded as a span when tracing.
template <class F>
double timed_ms(const char* name, const char* layer, std::uint64_t op,
                F&& f) {
  Span s(name, layer, op);
  const std::int64_t t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

}  // namespace pb
