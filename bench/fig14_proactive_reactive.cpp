// Regenerates Figure 14: Parcae (proactive) vs Parcae-Reactive on
// synthetic traces that scale preemption intensity from 3 to 30
// events per hour while holding availability roughly constant
// (derived from the HA-SP regime, as in §10.4).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 14",
                "proactive vs reactive under scaled preemption intensity");
  const ModelProfile model = gpt2_profile();

  TextTable table({"preemptions/h", "Proactive tokens/s", "Reactive tokens/s",
                   "gap %"});
  double low_gap = 0.0, high_gap = 0.0;
  for (int events : {3, 6, 12, 18, 24, 30}) {
    // Average a few seeds so the trend is not an artifact of one
    // random event placement.
    double proactive = 0.0, reactive = 0.0;
    const int seeds = 3;
    for (int s = 0; s < seeds; ++s) {
      Rng rng(1000 + 17 * static_cast<unsigned>(events) + s);
      SyntheticTraceOptions options;
      options.preemption_events = events;
      options.target_availability = 30.0;
      const SpotTrace trace = synthesize_trace(options, rng);
      proactive += bench::run_parcae(model, trace, PredictionMode::kProactive)
                       .avg_unit_throughput;
      reactive += bench::run_parcae(model, trace, PredictionMode::kReactive)
                      .avg_unit_throughput;
    }
    proactive /= seeds;
    reactive /= seeds;
    const double gap = 100.0 * (proactive / reactive - 1.0);
    if (events == 3) low_gap = gap;
    if (events == 30) high_gap = gap;
    table.row()
        .add(events)
        .add(proactive, 0)
        .add(reactive, 0)
        .add(gap, 1);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("gap at 3 events: %.1f%%, at 30 events: %.1f%%\n", low_gap,
              high_gap);
  bench::paper_note(
      "Figure 14: the proactive/reactive gap widens as preemption "
      "intensity grows — proactive liveput optimization matters most "
      "under frequent preemptions");
  return 0;
}
