// Regenerates the recomputation ablation of Section 7.2: the holistic
// scheduler with recomputation allowed vs prohibited. Paper reference: up
// to 1.40x cost increase without recomputation on some instances, but a
// few instances counter-intuitively improve (the restricted search space
// can help an anytime solver within a fixed budget).
#include "bench/bench_common.hpp"

using namespace mbsp;
using namespace mbsp::bench;

int main() {
  const BenchConfig config = BenchConfig::from_env();
  const std::vector<MbspInstance> instances =
      make_instances(tiny_dataset(config.seed), 4, 3.0, 1, 10);

  // Cell layout: i-major; recompute-allowed first, prohibited second.
  std::vector<BatchRunner::CellSpec> specs;
  for (const MbspInstance& inst : instances) {
    specs.push_back({&inst, "holistic"});
    specs.push_back({&inst, "holistic:rec=0"});
  }
  const std::vector<BatchCell> cells = make_runner(config).run_cells(specs);

  Table table({"Instance", "with recompute", "no recompute", "increase"});
  std::vector<double> increases;
  int worse = 0, better = 0;
  double max_increase = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const double with = cell_or_die(cells[2 * i]).cost;
    const double without = cell_or_die(cells[2 * i + 1]).cost;
    const double increase = without / with;
    increases.push_back(increase);
    worse += increase > 1.0 + 1e-9;
    better += increase < 1.0 - 1e-9;
    max_increase = std::max(max_increase, increase);
    table.add_row({instances[i].name(), cost_str(with), cost_str(without),
                   fmt(increase, 2)});
  }
  emit(table, "Section 7.2: prohibiting recomputation (P=4, r=3r0, L=10)",
       config, "recompute");
  std::printf("instances worse without recomputation: %d; better: %d; "
              "largest increase %.2fx (paper: up to 1.40x, 7 worse / 6 "
              "better of 15)\n",
              worse, better, max_increase);
  print_geomean(increases, "no-recompute / with-recompute");
  return 0;
}
