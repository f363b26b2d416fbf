// Regenerates Figure 12: GPU-hours breakdown of GPT-2 execution into
// effective computation, redundant computation, preemption handling
// (checkpoints, rollbacks, migrations), lost work, and unutilized
// instances, for Varuna, Bamboo, and Parcae on each trace segment.
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

namespace {

void add_row(TextTable& table, const std::string& trace,
             const SimulationResult& r) {
  const double total = r.gpu_hours.total();
  auto pct = [&](double v) { return 100.0 * v / total; };
  table.row()
      .add(trace)
      .add(r.policy)
      .add(pct(r.gpu_hours.effective), 1)
      .add(pct(r.gpu_hours.redundant), 1)
      .add(pct(r.gpu_hours.handling), 1)
      .add(pct(r.gpu_hours.lost), 1)
      .add(pct(r.gpu_hours.unutilized), 1)
      .add(total, 1);
}

}  // namespace

int main() {
  bench::header("Figure 12", "GPU-hours breakdown of GPT-2 execution (%)");
  const ModelProfile model = gpt2_profile();

  TextTable table({"trace", "system", "effective", "redundant", "handling",
                   "lost", "unutilized", "total GPU-h"});
  for (const SpotTrace& trace : all_canonical_segments()) {
    add_row(table, trace.name(),
            bench::run_parcae(model, trace, PredictionMode::kProactive));
    add_row(table, trace.name(), bench::run_bamboo(model, trace));
    add_row(table, trace.name(), bench::run_varuna(model, trace));
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Figure 12: Parcae spends the majority of GPU hours on effective "
      "computation; Bamboo burns >40% on redundant computation (>50% on "
      "LA-DP); Varuna loses large shares to preemption handling");
  return 0;
}
