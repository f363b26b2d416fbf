// Serving-goodput bench (bench/run_benches.sh): two things in one
// binary.
//
// 1. A deterministic policy comparison printed before the benchmark
//    cases run: proactive vs. reactive vs. static serving on the
//    canonical availability segments plus the synthetic full-day
//    trace, MMPP arrivals at 25 rps against GPT-2. Emits one
//    greppable VERDICT line per trace and a SERVE_GOODPUT_GATE
//    summary; the gate requires proactive to beat BOTH baselines on
//    SLO attainment or cost per million good requests on at least two
//    traces, and the binary exits non-zero if it does not. Everything
//    is seeded, so this is a correctness gate, not a flaky perf one.
//
// 2. google-benchmark cases for the serving decision path, gated by
//    bench/compare.py against bench/baselines/BENCH_serve_goodput.json:
//      BM_ServeSim            one proactive interval-loop over LA-SP
//      BM_GoodputOptimize/*   cold solve vs. warm-started re-solve
//      BM_ArrivalGen          MMPP chain and per-interval counts (1 day)
//      BM_ArrivalOffsets      every interval's sorted offsets (1 day)
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/ondemand_policy.h"
#include "core/interval_dp.h"
#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "serve/arrival.h"
#include "serve/queue_model.h"
#include "serve/serving_scheduler.h"
#include "serve/serving_sim.h"
#include "trace/spot_trace.h"

namespace parcae::serve {
namespace {

constexpr double kRps = 25.0;
constexpr std::uint64_t kSeed = 123;

ArrivalOptions bench_arrivals() {
  ArrivalOptions a;
  a.kind = ArrivalKind::kMmpp;
  a.seed = kSeed ^ 0xa221ull;
  a.base_rps = kRps;
  return a;
}

ServingSchedulerOptions bench_scheduler(ServingMode mode) {
  ServingSchedulerOptions s;
  s.mode = mode;
  s.seed = kSeed;
  return s;
}

ServingSimResult run_system(ServingMode mode, const SpotTrace& trace) {
  ArrivalGenerator arrivals(bench_arrivals());
  ServingScheduler scheduler(model_by_name("GPT-2"), bench_scheduler(mode),
                             &arrivals);
  const int intervals =
      static_cast<int>(trace.availability_series(60.0).size());
  return simulate_serving(scheduler, arrivals, trace, intervals, {});
}

// The policy comparison the paper's serving extension is judged on.
// Returns the number of traces where proactive beats both baselines.
int run_comparison() {
  std::vector<SpotTrace> traces = {canonical_segment(TraceSegment::kHighAvailDense),
                                   canonical_segment(TraceSegment::kLowAvailSparse),
                                   full_day_trace()};
  std::printf(
      "%-10s %-10s %10s %10s %10s %12s %8s\n", "trace", "system",
      "goodput", "attain%", "p99_ms", "usd_per_1M", "reconfig");
  int wins = 0;
  for (const SpotTrace& trace : traces) {
    const ServingSimResult pro = run_system(ServingMode::kProactive, trace);
    const ServingSimResult rea = run_system(ServingMode::kReactive, trace);
    const ServingSimResult sta = run_system(ServingMode::kStatic, trace);
    for (const ServingSimResult* r : {&pro, &rea, &sta})
      std::printf("%-10s %-10s %10.2f %10.2f %10.1f %12.2f %8d\n",
                  r->trace.c_str(), r->policy.c_str(), r->goodput_rps,
                  100.0 * r->slo_attainment, r->p99_ms,
                  r->cost_per_million_usd, r->config_changes);
    const bool slo_win = pro.slo_attainment > rea.slo_attainment &&
                         pro.slo_attainment > sta.slo_attainment;
    const bool cost_win =
        std::isfinite(pro.cost_per_million_usd) &&
        pro.cost_per_million_usd < rea.cost_per_million_usd &&
        pro.cost_per_million_usd < sta.cost_per_million_usd;
    if (slo_win || cost_win) ++wins;
    std::printf(
        "VERDICT trace=%s slo_win=%d cost_win=%d "
        "attain_pro=%.4f attain_rea=%.4f attain_sta=%.4f\n",
        pro.trace.c_str(), slo_win ? 1 : 0, cost_win ? 1 : 0,
        pro.slo_attainment, rea.slo_attainment, sta.slo_attainment);
  }
  std::printf("SERVE_GOODPUT_GATE: %s (%d/%zu traces)\n",
              wins >= 2 ? "PASS" : "FAIL", wins, traces.size());
  return wins;
}

// --- google-benchmark cases -------------------------------------------

// Full proactive serving loop (predict, DP solve, migrate, event-level
// queue replay) over the sparse low-availability segment.
void BM_ServeSim(benchmark::State& state) {
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  const ModelProfile model = model_by_name("GPT-2");
  const int intervals =
      static_cast<int>(trace.availability_series(60.0).size());
  for (auto _ : state) {
    ArrivalGenerator arrivals(bench_arrivals());
    ServingScheduler scheduler(model, bench_scheduler(ServingMode::kProactive),
                               &arrivals);
    const ServingSimResult r =
        simulate_serving(scheduler, arrivals, trace, intervals, {});
    benchmark::DoNotOptimize(r.goodput_rps);
  }
  state.SetItemsProcessed(state.iterations() * intervals);
}
BENCHMARK(BM_ServeSim)->Unit(benchmark::kMillisecond);

// The goodput objective on the shared interval DP.
struct DpFixture {
  ModelProfile model = model_by_name("GPT-2");
  GoodputObjective objective{model, {}, nullptr, 32};
  IntervalDp dp{&objective, CostEstimator(model), [] {
                  IntervalDpOptions opt;
                  opt.mc_trials = 64;
                  opt.seed = 11;
                  return opt;
                }()};
};

// Cold solve: the value table is invalidated every iteration, so the
// DP re-expands every column. This is the serving analogue of the
// training optimizer's cold case in fig18b_optimizer_time.
void BM_GoodputOptimize_Cold(benchmark::State& state) {
  DpFixture f;
  const std::vector<int> n(12, 12);
  const std::vector<double> rps(12, kRps);
  for (auto _ : state) {
    f.dp.invalidate();
    IntervalPlan plan = f.dp.optimize(kIdleConfig, n[0], n, rps);
    benchmark::DoNotOptimize(plan.expected_value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoodputOptimize_Cold)->Unit(benchmark::kMicrosecond);

// Warm re-solve with one changed input: the incremental path reuses
// the unchanged prefix. This bounds the per-tick decision latency.
void BM_GoodputOptimize_Warm(benchmark::State& state) {
  DpFixture f;
  std::vector<int> n(12, 12);
  const std::vector<double> rps(12, kRps);
  IntervalPlan plan = f.dp.optimize(kIdleConfig, n[0], n, rps);
  ParallelConfig current = plan.next();
  int tick = 0;
  for (auto _ : state) {
    n.back() = 10 + (tick++ % 5);  // churn only the horizon tail
    plan = f.dp.optimize(current, n[0], n, rps);
    benchmark::DoNotOptimize(plan.expected_value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoodputOptimize_Warm)->Unit(benchmark::kMicrosecond);

// One simulated day of MMPP chain preparation plus the per-interval
// request counts: total_requests() draws only each interval's count,
// none of its offsets (BM_ArrivalOffsets times those).
void BM_ArrivalGen(benchmark::State& state) {
  for (auto _ : state) {
    ArrivalGenerator arrivals(bench_arrivals());
    arrivals.prepare(1440);
    benchmark::DoNotOptimize(arrivals.total_requests(1440));
  }
  state.SetItemsProcessed(state.iterations() * 1440);
}
BENCHMARK(BM_ArrivalGen)->Unit(benchmark::kMillisecond);

// One simulated day of arrival offsets, drawn and sorted interval by
// interval as simulate_serving consumes them; items are requests.
void BM_ArrivalOffsets(benchmark::State& state) {
  ArrivalGenerator arrivals(bench_arrivals());
  arrivals.prepare(1440);
  std::vector<double> offsets;
  std::int64_t requests = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1440; ++i) {
      arrivals.arrivals(i, offsets);
      requests += static_cast<std::int64_t>(offsets.size());
    }
    benchmark::DoNotOptimize(offsets.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ArrivalOffsets)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parcae::serve

int main(int argc, char** argv) {
  const int wins = parcae::serve::run_comparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return wins >= 2 ? 0 : 1;
}
