// Regenerates the P = 1 experiment of Section 7.2: single-processor
// red-blue pebbling with compute costs. Baseline: DFS order + clairvoyant
// eviction; our ILP/LNS tries to improve it. Paper reference: the DFS
// baseline is strong — at r = 3*r0 the ILP improved only 2 of 15 instances
// (exp family), at r = r0 none.
#include "bench/bench_common.hpp"

using namespace mbsp;
using namespace mbsp::bench;

int main() {
  const BenchConfig config = BenchConfig::from_env();
  auto dataset = tiny_dataset(config.seed);
  const std::size_t count = dataset.size();

  // Cell layout: i-major, r-factor-minor (r = 3r0 then r = r0).
  std::vector<MbspInstance> instances;
  instances.reserve(count * 2);
  for (std::size_t i = 0; i < count; ++i) {
    instances.push_back(make_instance(dataset[i], 1, 3.0, 1, 0));
    instances.push_back(make_instance(dataset[i], 1, 1.0, 1, 0));
  }
  std::vector<BatchRunner::CellSpec> specs;
  for (const MbspInstance& inst : instances) {
    specs.push_back({&inst, "lns:warm=dfs+clairvoyant"});
  }
  const std::vector<BatchCell> cells = make_runner(config).run_cells(specs);

  Table table({"Instance", "DFS+cv (r=3r0)", "ILP (r=3r0)", "DFS+cv (r=r0)",
               "ILP (r=r0)"});
  int improved3 = 0, improved1 = 0;
  std::vector<double> r3, r1;
  for (std::size_t i = 0; i < count; ++i) {
    const ScheduleResult& at3 = cell_or_die(cells[2 * i]);
    const ScheduleResult& at1 = cell_or_die(cells[2 * i + 1]);
    const double base3 = at3.baseline_cost, ilp3 = std::min(at3.cost, base3);
    const double base1 = at1.baseline_cost, ilp1 = std::min(at1.cost, base1);
    table.add_row({dataset[i].name(), cost_str(base3), cost_str(ilp3),
                   cost_str(base1), cost_str(ilp1)});
    improved3 += ilp3 < base3 - 1e-9;
    improved1 += ilp1 < base1 - 1e-9;
    r3.push_back(ilp3 / base3);
    r1.push_back(ilp1 / base1);
  }
  emit(table, "Section 7.2 (P=1): red-blue pebbling with compute costs",
       config, "pebble_p1");
  std::printf("instances improved at r=3r0: %d / %zu (paper: 2 / 15)\n",
              improved3, count);
  std::printf("instances improved at r=r0:  %d / %zu (paper: 0 / 15)\n",
              improved1, count);
  print_geomean(r3, "r=3r0");
  print_geomean(r1, "r=r0");
  return 0;
}
