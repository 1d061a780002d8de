#pragma once
// The three bench_mbsp workloads behind one interface. README.md says why
// each one exists and which layers it stresses.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_mbsp/harness.hpp"
#include "include/mbsp/mbsp.hpp"
#include "src/util/stats.hpp"

namespace mbsp::bench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall-clock length of the whole timed phase.
  double seconds = 30;
  /// --check: every workload at a tiny size.
  bool small = false;
};

/// Inputs of the per-layer probes: the workload's own DAG (for ingest,
/// decode, hash and partition) and an instance of about 10^3 nodes drawn
/// from the workload (for the solver-level probes).
struct ProbeInputs {
  const ComputeDag* dag = nullptr;
  const MbspInstance* inst = nullptr;
  std::string machine_spec;  ///< the machine `inst` was built on
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Percentile reported as latency_tail_ms. Fixed per workload: the
  /// highest one with at least 10 samples beyond it at the workload's usual
  /// operation count.
  virtual double tail_pct() const = 0;

  /// Builds every input from the seed. Called on a fresh object each time
  /// setup is measured.
  virtual void setup() = 0;
  /// Runs operations for `seconds`; operation ids continue across calls.
  /// Each operation's outputs are checked untimed right after it, so
  /// memory does not grow with the number of operations.
  virtual PhaseResult run(double seconds) = 0;
  /// Geometric mean of final cost over BSPg + clairvoyant cost on the same
  /// instance, over a set of operations fixed by the seed alone.
  virtual double cost_ratio() = 0;
  /// Traced runs only: reference passes after the timed phase.
  virtual void reference_pass() {}
  virtual ProbeInputs probe_inputs() const = 0;
};

/// Where a workload reports: per-layer samples and output checks.
struct Sinks {
  LayerSamples& samples;
  Checks& checks;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunOptions& options, Sinks sinks);
const std::vector<std::string>& workload_names();

/// One call of every probed public function on the workload's inputs.
void run_probes(const ProbeInputs& inputs, const RunOptions& options,
                LayerSamples& samples);

std::unique_ptr<Workload> make_lns_mid(const RunOptions&, Sinks);
std::unique_ptr<Workload> make_large_sharded(const RunOptions&, Sinks);
std::unique_ptr<Workload> make_repair_trace(const RunOptions&, Sinks);

}  // namespace mbsp::bench
