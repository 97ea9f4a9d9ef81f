// Shared pieces of the repository benchmark: metrics and results, the
// allocation counter, the in-memory span tracer, run fingerprints, and
// the small statistics helpers every workload uses.
//
// Everything here lives in the benchmark binary.  The library under test
// is only ever reached through its public headers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "lb/core/engine.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable notes printed before the result line ("verify ...",
  /// sizes, fingerprints).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Record a failed operation and why.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back("FAIL " + why);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required: BENCHMARK.json's run_seconds
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".bench_build/perfbench/traces";
  std::string git_describe = "unknown";
  /// Shrunk instances for the self-tests only (never used for metrics).
  bool small = false;
};

/// The seed whose fingerprints are pinned in perfbench/expected.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

Outcome run_workload(const Options& opt);
std::vector<std::string> workload_names();

// ---------------------------------------------------------------------------
// Allocation counter (alloc_hook.cpp replaces global operator new)
// ---------------------------------------------------------------------------

void alloc_counting(bool on);
long long alloc_count();
void alloc_reset();

/// Counts heap allocations made (by any thread) while alive.
class AllocScope {
 public:
  AllocScope() {
    alloc_reset();
    alloc_counting(true);
  }
  ~AllocScope() { alloc_counting(false); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  long long count() const { return alloc_count(); }
};

// ---------------------------------------------------------------------------
// Clocks and statistics
// ---------------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated quantile of a copy of `v` (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Span tracer (traced runs only)
// ---------------------------------------------------------------------------

/// In-memory spans: name, start, end, parent.  Spans nest through a stack,
/// so a span opened while another is open becomes its child.  Written out
/// once, at the end of the traced run.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int begin(const std::string& name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const std::string& name) : t_(t), id_(t ? t->begin(name) : -1) {}
    ~Scope() {
      if (t_ != nullptr) t_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  static double duration_us(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
  }

  /// Durations (µs) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Self time (µs) of each span called `name`: its duration minus the
  /// part covered by its direct children.
  std::vector<double> self_us(const std::string& name) const;

  void write_json(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The traced run's spans, one tracer per part.  A deque, so a part's
/// tracer stays where it is while later parts are added.
using Traces = std::deque<std::pair<std::string, Tracer>>;

inline Tracer& new_part(Traces& traces, const std::string& name) {
  traces.emplace_back(name, Tracer{});
  return traces.back().second;
}

/// Write the traced run's spans, one array per part, to `path`.
bool write_trace_file(const std::string& path, const std::string& workload,
                      const Traces& parts);

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// What must not change between legs, pools and commits: rounds executed,
/// the bits of final Φ and discrepancy, a hash of the final load bytes,
/// and the applied stream totals of an open run.  StepStats::transferred
/// and RunResult::steady are deliberately left out.
struct Fingerprint {
  std::uint64_t rounds = 0;
  std::uint64_t phi_bits = 0;
  std::uint64_t disc_bits = 0;
  std::uint64_t load_hash = 0;
  std::uint64_t arrivals_bits = 0;
  std::uint64_t departures_bits = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  std::string str() const;
};

inline std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// FNV-1a over raw bytes; `h` chains several buffers.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <class T>
std::uint64_t hash_loads(const std::vector<T>& load) {
  return fnv1a(load.data(), load.size() * sizeof(T));
}

/// Fingerprint of a run.  `final_load` may be null where the entry point
/// does not hand the loads back (campaign cells); the hash is then 0.
template <class T>
Fingerprint fingerprint(const lb::core::RunResult& r, const std::vector<T>* final_load) {
  Fingerprint f;
  f.rounds = r.rounds;
  f.phi_bits = bits_of(r.final_potential);
  f.disc_bits = bits_of(r.final_discrepancy);
  f.load_hash = final_load != nullptr ? hash_loads(*final_load) : 0;
  if (r.open_system) {
    f.arrivals_bits = bits_of(r.stream_arrivals);
    f.departures_bits = bits_of(r.stream_departures);
  }
  return f;
}

/// Fold many fingerprints (campaign cells) into one.
inline Fingerprint combine(const std::vector<Fingerprint>& parts) {
  Fingerprint out;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Fingerprint& f : parts) {
    out.rounds += f.rounds;
    h = fnv1a(&f, sizeof f, h);
  }
  out.load_hash = h;
  return out;
}

/// Expected fingerprint of `workload` at the default seed, "" if none,
/// from expected.txt in the benchmark's sources.
std::string expected_fingerprint(const std::string& workload);

// ---------------------------------------------------------------------------
// Machine facts
// ---------------------------------------------------------------------------

std::size_t hardware_workers();
/// Last-level cache size in bytes (0 when the system does not say).
std::size_t llc_bytes();
/// Peak resident set of this process, MiB.
double peak_rss_mib();

}  // namespace perfbench
