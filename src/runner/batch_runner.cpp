#include "src/runner/batch_runner.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <unordered_map>

#include "src/graph/dag_io.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_spec.hpp"
#include "src/util/thread_pool.hpp"

namespace mbsp {

namespace {

const char* cost_model_name(CostModel cost) {
  return cost == CostModel::kSynchronous ? "sync" : "async";
}

}  // namespace

BatchRunner::BatchRunner(BatchOptions options, const SchedulerRegistry& registry)
    : options_(std::move(options)), registry_(registry) {}

std::vector<BatchCell> BatchRunner::run_grid(
    const std::vector<MbspInstance>& instances,
    const std::vector<std::string>& schedulers) const {
  std::vector<CellSpec> specs;
  specs.reserve(instances.size() * schedulers.size());
  for (const MbspInstance& inst : instances) {
    for (const std::string& scheduler : schedulers) {
      specs.push_back({&inst, scheduler});
    }
  }
  return run_cells(specs);
}

std::vector<BatchCell> BatchRunner::run_cells(
    const std::vector<CellSpec>& cells) const {
  std::vector<BatchCell> out(cells.size());
  // Resolve every spec up front so a typo fails fast, before any work.
  std::vector<std::pair<const MbspScheduler*, SchedulerOptions>> resolved;
  resolved.reserve(cells.size());
  for (const CellSpec& cell : cells) {
    SchedulerSpec spec =
        resolve_scheduler_spec(cell.scheduler, options_.scheduler);
    resolved.emplace_back(&registry_.at(spec.name), std::move(spec.options));
  }
  // Hash each distinct instance once, not once per grid cell.
  std::unordered_map<const MbspInstance*, std::uint64_t> hashes;
  for (const CellSpec& spec : cells) {
    if (!hashes.count(spec.instance)) {
      hashes.emplace(spec.instance, dag_canonical_hash(spec.instance->dag));
    }
  }

  const std::size_t threads =
      options_.threads > 0
          ? options_.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(threads, std::max<std::size_t>(1, cells.size())));
  const bool validate_cells = options_.validate;
  parallel_for(pool, cells.size(), [&](std::size_t i) {
    const CellSpec& spec = cells[i];
    BatchCell& cell = out[i];
    cell.instance = spec.instance->name();
    cell.dag_hash = hashes.at(spec.instance);
    cell.machine = spec.instance->arch.name;
    cell.scheduler = spec.scheduler;
    const auto& [scheduler, options] = resolved[i];
    cell.cost_model = options.cost;
    if (!scheduler->supports(*spec.instance)) {
      cell.error = "unsupported instance";
      return;
    }
    try {
      cell.result = scheduler->run(*spec.instance, options);
    } catch (const std::exception& e) {
      cell.error = e.what();
      return;
    }
    if (validate_cells) {
      const ValidationResult valid =
          validate(*spec.instance, cell.result.schedule);
      if (!valid.ok) {
        cell.error = "invalid schedule: " + valid.error;
        return;
      }
    }
    cell.ok = true;
  });
  return out;
}

Table batch_table(const std::vector<BatchCell>& cells,
                  bool include_wall_time, bool include_hash) {
  // The machine column appears whenever any cell ran on a named machine
  // (a pure function of the cells, so tables stay bitwise reproducible).
  bool include_machine = false;
  for (const BatchCell& cell : cells) include_machine |= !cell.machine.empty();
  std::vector<std::string> header{"instance", "scheduler",  "model",
                                  "cost",     "ratio",      "io",
                                  "supersteps"};
  if (include_machine) header.insert(header.begin() + 1, "machine");
  if (include_hash) header.push_back("dag_hash");
  if (include_wall_time) header.push_back("wall_ms");
  Table table(std::move(header));
  // Ratio reference per (instance, machine): its first ok cell (the
  // grid's first scheduler, by construction of run_grid's cell order).
  std::unordered_map<std::string, const BatchCell*> references;
  for (const BatchCell& cell : cells) {
    if (cell.ok) {
      references.try_emplace(cell.instance + "\x1f" + cell.machine, &cell);
    }
  }
  for (const BatchCell& cell : cells) {
    const auto it = references.find(cell.instance + "\x1f" + cell.machine);
    const BatchCell* reference = it == references.end() ? nullptr : it->second;
    std::vector<std::string> row{cell.instance, cell.scheduler,
                                 cost_model_name(cell.cost_model)};
    if (!cell.ok) {
      row.insert(row.end(), {"-", "-", "-", "-"});
      row[3] = cell.error.empty() ? "-" : cell.error;
    } else {
      row.push_back(fmt(cell.result.cost, 1));
      row.push_back(reference != nullptr && reference->result.cost > 0
                        ? fmt(cell.result.cost / reference->result.cost, 2)
                        : "-");
      row.push_back(fmt(cell.result.io_volume, 0));
      row.push_back(std::to_string(cell.result.supersteps));
    }
    if (include_hash) row.push_back(dag_hash_hex(cell.dag_hash));
    if (include_wall_time) {
      row.push_back(cell.ok ? fmt(cell.result.wall_ms, 1) : "-");
    }
    if (include_machine) {
      // Inserted last so the error-row indices above stay column-stable.
      // Ad-hoc architectures (no canonical name) render as "-" so they
      // cannot collide with the registry's all-default "uniform" name.
      row.insert(row.begin() + 1,
                 cell.machine.empty() ? "-" : cell.machine);
    }
    table.add_row(std::move(row));
  }
  return table;
}

const BatchCell* find_cell(const std::vector<BatchCell>& cells,
                           const std::string& instance,
                           const std::string& scheduler) {
  for (const BatchCell& cell : cells) {
    if (cell.instance == instance && cell.scheduler == scheduler) return &cell;
  }
  return nullptr;
}

}  // namespace mbsp
