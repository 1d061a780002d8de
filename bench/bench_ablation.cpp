// Ablation bench for the design choices DESIGN.md calls out:
//  * each LNS move class disabled in turn (which degrees of freedom carry
//    the improvement?),
//  * completion policy inside the search (clairvoyant vs LRU),
//  * warm start (baseline) vs cold start (trivial all-on-p0 plan).
// Reported as geomean cost ratios vs the full configuration over a
// representative subset of the tiny dataset. All configurations run as
// "lns" registry cells, each configuration's knobs as spec keys.
#include "bench/bench_common.hpp"

using namespace mbsp;
using namespace mbsp::bench;

namespace {

struct Config {
  const char* label;
  const char* scheduler;
};

constexpr Config kConfigs[] = {
    {"full", "lns"},
    {"no proc moves", "lns:moves=step+merge+split+recompute+drop"},
    {"no superstep moves", "lns:moves=proc+swap+recompute+drop"},
    {"no recompute moves", "lns:moves=proc+step+swap+merge+split"},
    {"lru completion", "lns:policy=lru"},
    {"cold start", "lns:cold=1"},
};

}  // namespace

int main() {
  const BenchConfig config = BenchConfig::from_env();
  auto dataset = tiny_dataset(config.seed);
  const std::vector<int> subset{0, 3, 6, 9, 12};  // one per family
  constexpr std::size_t kNumConfigs = std::size(kConfigs);

  std::vector<MbspInstance> instances;
  for (int index : subset) {
    instances.push_back(make_instance(dataset[index], 4, 3.0, 1, 10));
  }
  std::vector<BatchRunner::CellSpec> specs;  // i-major, config-minor
  for (const MbspInstance& inst : instances) {
    for (const Config& cfg : kConfigs) specs.push_back({&inst, cfg.scheduler});
  }
  const std::vector<BatchCell> cells = make_runner(config).run_cells(specs);

  Table table({"configuration", "geomean vs full", "per-instance ratios",
               "proposed", "accepted", "accept %", "per-class accept %"});
  for (std::size_t c = 0; c < kNumConfigs; ++c) {
    std::vector<double> ratios;
    std::string detail;
    // Move-class proposal/acceptance counters summed over the subset: move
    // ablations should report *acceptance rates*, not just final cost.
    long proposed = 0, accepted = 0;
    std::array<long, kNumMoveClasses> class_proposed{}, class_accepted{};
    for (std::size_t i = 0; i < subset.size(); ++i) {
      const ScheduleResult& cell = cell_or_die(cells[i * kNumConfigs + c]);
      const double full = cell_or_die(cells[i * kNumConfigs]).cost;
      ratios.push_back(cell.cost / full);
      detail += fmt(ratios.back(), 2) + " ";
      for (std::size_t m = 0; m < cell.lns_proposed.size(); ++m) {
        proposed += cell.lns_proposed[m];
        accepted += cell.lns_accepted[m];
        class_proposed[m] += cell.lns_proposed[m];
        class_accepted[m] += cell.lns_accepted[m];
      }
    }
    std::string per_class;
    for (int m = 0; m < kNumMoveClasses; ++m) {
      if (class_proposed[m] == 0) continue;
      per_class += std::string(lns_move_class_name(m)) + ":" +
                   fmt(100.0 * class_accepted[m] / class_proposed[m], 0) +
                   "% ";
    }
    table.add_row({kConfigs[c].label, fmt(geometric_mean(ratios), 3), detail,
                   std::to_string(proposed), std::to_string(accepted),
                   proposed > 0 ? fmt(100.0 * accepted / proposed, 1) : "-",
                   per_class});
  }
  emit(table,
       "LNS design ablation (>= 1.0 means the full configuration is better)",
       config, "ablation");
  return 0;
}
