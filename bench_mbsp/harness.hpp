#pragma once
// Measurement harness of bench_mbsp: the span tracer, latency summaries,
// per-layer sample store, output checks and the closed loop. All of
// it measures the library from outside, around calls to its public
// functions; nothing here reaches into src/.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace mbsp::bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// SplitMix64 finalizer: derives independent per-item seeds from the run
/// seed, so every input depends only on (--seed, item index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

// ---------------------------------------------------------------------------
// Latency summary.

/// Median plus tail of a latency sample, both mbsp::quantile (linear
/// interpolation). The tail percentile a workload reports is fixed per
/// workload (so a faster commit, which completes more closed-loop
/// operations, is compared at the same percentile); `supported_pct` names
/// the highest percentile of the ladder 50/75/90/95/99/99.9 with at least
/// 10 samples beyond it.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0;
  double tail_pct = 50;
  double tail = 0;
  std::size_t beyond_tail = 0;  ///< samples above the tail value
  double supported_pct = 0;

  static LatencySummary of(const std::vector<double>& samples,
                           double tail_pct);
};

// ---------------------------------------------------------------------------
// Span tracer.

/// Which part of a run a span or sample belongs to. Only kTimed spans count
/// toward self time; per-layer values prefer kTimed over kPost (checks and
/// reference passes) over kProbe (single calls on the workload's inputs).
enum class Phase : std::uint8_t { kSetup = 0, kTimed = 1, kPost = 2, kProbe = 3 };

struct SpanRecord {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;  ///< index into the span list, -1 for roots
  std::int64_t op = -1;      ///< operation id, -1 outside operations
  std::uint32_t tid = 0;
  Phase phase = Phase::kSetup;
  double work = 0;  ///< items the call processed (nodes, iterations)
};

/// Process-wide in-memory span recorder. Disabled, a Span costs one relaxed
/// atomic load and reads no clock.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable(Phase phase);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }
  void set_phase(Phase phase) { phase_.store(phase, std::memory_order_relaxed); }

  std::int32_t open(const char* layer, const char* name);
  void close(std::int32_t index, double work);

  /// Sets the operation id the calling thread's spans are tagged with.
  static void set_current_op(std::int64_t op);

  std::vector<SpanRecord> spans() const;
  /// Drops every recorded span (one process may run several workloads).
  void clear();
  /// Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome_json(const std::string& path, std::string* error) const;

 private:
  Tracer() = default;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::atomic<bool> enabled_{false};
  std::atomic<Phase> phase_{Phase::kSetup};
  std::atomic<std::uint32_t> next_tid_{0};
  const Clock::time_point epoch_ = Clock::now();
};

/// RAII span around one public call of a layer.
class Span {
 public:
  Span(const char* layer, const char* name)
      : index_(Tracer::instance().enabled()
                   ? Tracer::instance().open(layer, name)
                   : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::instance().close(index_, work_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_work(double work) { work_ = work; }

 private:
  std::int32_t index_;
  double work_ = 0;
};

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
decltype(auto) traced(const char* layer, const char* name, Fn&& fn) {
  Span span(layer, name);
  return fn();
}

/// One operation: tags the thread's spans with `op` and opens its root span.
class OpScope {
 public:
  explicit OpScope(std::int64_t op) {
    Tracer::set_current_op(op);
    span_index_ = Tracer::instance().enabled()
                      ? Tracer::instance().open("bench", "op")
                      : -1;
  }
  ~OpScope() {
    if (span_index_ >= 0) Tracer::instance().close(span_index_, 0);
    Tracer::set_current_op(-1);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::int32_t span_index_ = -1;
};

/// The layers the benchmark attributes timed-phase time to, in report
/// order. "bench" is the harness itself (operation bookkeeping outside
/// library calls). The workload generators and the daemon are not among
/// them: no workload's timed phase calls them, only set-up and the probes
/// do.
inline constexpr std::array<const char*, 8> kLayers = {
    "graph",        "bsp",            "twostage",        "model",
    "holistic.lns", "holistic.shard", "holistic.repair", "bench"};

/// Each layer's self time (span minus the part its child spans cover),
/// summed over the spans of `phase`, in milliseconds, indexed like kLayers.
std::array<double, kLayers.size()> layer_self_ms(
    const std::vector<SpanRecord>& spans, Phase phase);

// ---------------------------------------------------------------------------
// Per-layer samples.

/// Values keyed by metric name and phase. Readers take the earliest of
/// kTimed, kPost, kProbe that has samples, so a layer the timed phase
/// exercises is reported from it and any other layer from the post-phase
/// passes or probes.
class LayerSamples {
 public:
  /// Adds under the tracer's current phase.
  void add(const std::string& key, double value);
  /// Every span's duration (ms) under its name, its work under name#work.
  void add_spans(const std::vector<SpanRecord>& spans);

  /// The phase `pick` reads `key` from, or kSetup when `key` is absent.
  Phase pick_phase(const std::string& key) const;
  const std::vector<double>& get(const std::string& key, Phase phase) const;
  const std::vector<double>& pick(const std::string& key) const {
    return get(key, pick_phase(key));
  }
  double sum(const std::string& key, Phase phase) const;

 private:
  void add(const std::string& key, Phase phase, double value);

  mutable std::mutex mutex_;
  std::map<std::string, std::array<std::vector<double>, 4>> data_;
};

// ---------------------------------------------------------------------------
// Output checks.

/// Records every output check; an operation with any failed check counts
/// as failed.
class Checks {
 public:
  void expect(bool ok, std::int64_t op, const std::string& what);
  std::int64_t passed() const { return passed_; }
  std::size_t failed_ops() const { return failed_ops_.size(); }
  bool all_passed() const { return first_failure_.empty(); }
  const std::string& first_failure() const { return first_failure_; }

 private:
  std::int64_t passed_ = 0;
  std::set<std::int64_t> failed_ops_;
  std::string first_failure_;
};

// ---------------------------------------------------------------------------
// Driving operations.

struct PhaseResult {
  std::vector<std::int64_t> op_ids;  ///< one entry per operation
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< untimed gap before each operation
  /// Operation time: the sum of operation latencies.
  double elapsed_s = 0;
};

/// Closed loop with one client: runs op(id) back to back until `seconds`
/// have passed and at least `min_ops` operations completed. `after(id)`
/// runs untimed between operations, in the post phase (output checks and
/// record keeping). Lag is the gap between one operation's end and the
/// next one's start.
PhaseResult closed_loop(double seconds, std::int64_t min_ops,
                        std::int64_t* next_op,
                        const std::function<void(std::int64_t)>& op,
                        const std::function<void(std::int64_t)>& after = {});

/// Scratch directory for files and sockets, relative to the working
/// directory (the repository root when run through run.py).
inline constexpr const char* kRunDir = ".bench_run";

/// A path in kRunDir unique to this process and call: "<stem>-<pid>-<n><ext>".
std::string scratch_path(const std::string& stem, const std::string& ext);

}  // namespace mbsp::bench
