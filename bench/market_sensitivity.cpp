// Extension study: bid-price sensitivity on generated spot markets.
// Higher bids buy stability (fewer preemptions) at a higher unit
// price; Parcae's cheap preemption handling shifts the economic
// optimum toward lower bids compared to checkpoint-based training —
// the economics behind the paper's motivation (§1) quantified.
#include "bench/bench_util.h"
#include "common/table.h"
#include "baselines/varuna_policy.h"
#include "trace/spot_market.h"

using namespace parcae;

int main() {
  bench::header("Extension", "bid-price sensitivity (generated markets)");
  const ModelProfile model = gpt2_profile();

  TextTable table({"bid ($/h)", "avg instances", "preempt events/h",
                   "Parcae Mtok", "Varuna Mtok", "Parcae $/1M tok",
                   "Varuna $/1M tok"});
  for (double bid : {0.95, 1.05, 1.20, 1.50}) {
    double avail = 0.0, events = 0.0;
    double parcae_tok = 0.0, varuna_tok = 0.0;
    double parcae_cost = 0.0, varuna_cost = 0.0;
    const int seeds = 3;
    for (int seed = 0; seed < seeds; ++seed) {
      Rng rng(100u + static_cast<unsigned>(seed));
      SpotMarketOptions market;
      market.bid = bid;
      const SpotMarketResult m = simulate_spot_market(market, rng);
      const TraceStats stats = m.trace.stats();
      avail += stats.avg_instances;
      events += stats.preemption_events;
      // Price the run at the market's mean paid price.
      SimulationOptions sim = bench::sim_options(model);
      sim.pricing.spot_gpu_usd_per_hour =
          m.mean_paid_price > 0.0 ? m.mean_paid_price : kSpotMarketMeanPrice;
      ParcaePolicy parcae(model, {});
      const SimulationResult rp = simulate(parcae, m.trace, sim);
      VarunaPolicy varuna(model);
      const SimulationResult rv = simulate(varuna, m.trace, sim);
      parcae_tok += rp.committed_units;
      varuna_tok += rv.committed_units;
      parcae_cost += rp.total_cost_usd;
      varuna_cost += rv.total_cost_usd;
    }
    table.row()
        .add(bid, 2)
        .add(avail / seeds, 1)
        .add(events / seeds, 1)
        .add(parcae_tok / seeds / 1e6, 1)
        .add(varuna_tok / seeds / 1e6, 1)
        .add(parcae_tok > 0 ? parcae_cost / parcae_tok * 1e6 : 0.0, 3)
        .add(varuna_tok > 0 ? varuna_cost / varuna_tok * 1e6 : 0.0, 3);
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "extension beyond the paper: Parcae tolerates low bids (frequent "
      "preemptions) far better than checkpoint-based training, so its "
      "cheapest operating point sits at a lower bid");
  return 0;
}
