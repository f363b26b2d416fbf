// Distributed observability: trace-context propagation across RPC,
// the Prometheus exporter + fleet rollups, the SLO rule engine, and
// `trace_tool merge` semantics.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/slo.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "obs/trace_context.h"
#include "obs/trace_merge.h"
#include "rpc/obs_service.h"
#include "rpc/rpc.h"
#include "rpc/transport.h"

using namespace parcae;

// ---------------------------------------------------------------------------
// Deterministic trace identity.

TEST(TraceContext, DerivedIdsAreDeterministicAndNonZero) {
  const std::uint64_t a = obs::derive_trace_id(11, 0);
  const std::uint64_t b = obs::derive_trace_id(11, 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_NE(obs::derive_trace_id(11, 1), a);   // per-interval ids differ
  EXPECT_NE(obs::derive_trace_id(12, 0), a);   // per-seed ids differ
  EXPECT_NE(obs::fork_trace_seed(11, 1), obs::fork_trace_seed(11, 2));
}

TEST(TraceContext, ScopeInstallsAndRestores) {
  EXPECT_FALSE(obs::current_trace_context().valid());
  {
    obs::TraceContextScope scope(obs::TraceContext{42, 7});
    EXPECT_EQ(obs::current_trace_context().trace_id, 42u);
    EXPECT_EQ(obs::current_trace_context().span_id, 7u);
    {
      obs::TraceContextScope inner(obs::TraceContext{42, 9});
      EXPECT_EQ(obs::current_trace_context().span_id, 9u);
    }
    EXPECT_EQ(obs::current_trace_context().span_id, 7u);
  }
  EXPECT_FALSE(obs::current_trace_context().valid());
}

TEST(TraceContext, NestedSpansFormAParentChain) {
  obs::TraceWriter writer;
  writer.enable_trace_ids(obs::fork_trace_seed(5, 1));
  {
    obs::TraceContextScope root(
        obs::TraceContext{obs::derive_trace_id(5, 0), 0});
    obs::ProfileSpan outer("outer", nullptr, &writer);
    obs::ProfileSpan inner("inner", nullptr, &writer);
    (void)outer;
    (void)inner;
  }
  const std::vector<obs::TraceEvent> events = writer.events();
  ASSERT_EQ(events.size(), 4u);  // outer B, inner B, inner E, outer E
  const obs::TraceEvent& outer_b = events[0];
  const obs::TraceEvent& inner_b = events[1];
  EXPECT_EQ(outer_b.trace_id, obs::derive_trace_id(5, 0));
  EXPECT_EQ(inner_b.trace_id, outer_b.trace_id);
  EXPECT_EQ(outer_b.parent_span_id, 0u);          // root span
  EXPECT_EQ(inner_b.parent_span_id, outer_b.span_id);
  EXPECT_NE(inner_b.span_id, outer_b.span_id);
}

TEST(TraceContext, SpanIdStreamReplaysBitForBit) {
  obs::TraceWriter a;
  obs::TraceWriter b;
  a.enable_trace_ids(obs::fork_trace_seed(7, 1));
  b.enable_trace_ids(obs::fork_trace_seed(7, 1));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_span_id(), b.next_span_id());
}

// ---------------------------------------------------------------------------
// Trace propagation over RPC, including drop/retry chaos. The invariant
// under test: a retried call reuses its trace identity (the frame is
// built once), and the replay cache keeps the handler-span count at
// exactly one per *logical* call.

namespace {

struct TracedCounts {
  std::size_t call_spans = 0;
  std::size_t handle_spans = 0;
  std::set<std::uint64_t> call_trace_ids;
  std::set<std::uint64_t> handle_trace_ids;
  std::map<std::uint64_t, std::uint64_t> handle_parent;  // span -> parent
  std::map<std::uint64_t, std::uint64_t> call_span_ids;  // span -> trace
};

TracedCounts count_spans(const obs::TraceWriter& client_writer,
                         const obs::TraceWriter& server_writer) {
  TracedCounts out;
  for (const obs::TraceEvent& e : client_writer.events()) {
    if (e.phase != 'B' || e.name.rfind("rpc.call.", 0) != 0) continue;
    ++out.call_spans;
    out.call_trace_ids.insert(e.trace_id);
    out.call_span_ids[e.span_id] = e.trace_id;
  }
  for (const obs::TraceEvent& e : server_writer.events()) {
    if (e.phase != 'B' || e.name.rfind("rpc.handle.", 0) != 0) continue;
    ++out.handle_spans;
    out.handle_trace_ids.insert(e.trace_id);
    out.handle_parent[e.span_id] = e.parent_span_id;
  }
  return out;
}

// Runs `calls` echo calls over `transport` with a one-shot rpc.drop on
// the `drop_frame`-th frame, returning the span accounting.
TracedCounts chaos_echo_run(rpc::Transport& transport, int calls,
                            std::uint64_t drop_frame,
                            obs::MetricsRegistry* metrics) {
  obs::TraceWriter client_writer;
  obs::TraceWriter server_writer;
  client_writer.enable_trace_ids(obs::fork_trace_seed(11, 1));
  server_writer.enable_trace_ids(obs::fork_trace_seed(11, 2));

  rpc::RpcServer server(transport);
  server.register_method("echo", [](const std::string& p) { return p; });
  server.set_tracer(&server_writer);
  server.set_metrics(metrics);
  server.start();

  FaultInjector faults(5);
  FaultTrigger trigger;
  trigger.nth = drop_frame;
  trigger.one_shot = true;
  faults.arm("rpc.drop", trigger);
  transport.set_fault_injector(&faults);

  rpc::RpcClientOptions options;
  options.deadline_s = 0.1;
  rpc::RpcClient client(transport, "agent", options);
  client.set_tracer(&client_writer);
  client.set_metrics(metrics);

  obs::TraceContextScope root(
      obs::TraceContext{obs::derive_trace_id(11, 0), 0});
  for (int i = 0; i < calls; ++i)
    EXPECT_EQ(client.call("echo", std::to_string(i)), std::to_string(i));
  client.close();
  server.stop();
  return count_spans(client_writer, server_writer);
}

void expect_exactly_one_handler_span_per_call(const TracedCounts& counts,
                                              int calls) {
  EXPECT_EQ(counts.call_spans, static_cast<std::size_t>(calls));
  // The chaos retry must not double-execute: one handler span per
  // logical call, not per frame.
  EXPECT_EQ(counts.handle_spans, static_cast<std::size_t>(calls));
  // Every handler span is parented by a client call span and carries
  // the same trace id — the trace crossed the wire intact.
  EXPECT_EQ(counts.handle_trace_ids, counts.call_trace_ids);
  for (const auto& [span, parent] : counts.handle_parent) {
    (void)span;
    EXPECT_TRUE(counts.call_span_ids.count(parent) == 1);
  }
}

}  // namespace

TEST(TracePropagation, DroppedRequestKeepsTraceIdentityInproc) {
  rpc::InProcTransport transport;
  obs::MetricsRegistry metrics;
  transport.set_metrics(&metrics);
  const TracedCounts counts =
      chaos_echo_run(transport, 4, /*drop_frame=*/1, &metrics);
  expect_exactly_one_handler_span_per_call(counts, 4);
  // The drop really happened and really was retried.
  EXPECT_EQ(metrics.counter("rpc.dropped").value(), 1.0);
  EXPECT_GE(metrics.counter("rpc.client.retries").value(), 1.0);
  // A single interval root: every span shares one trace id.
  EXPECT_EQ(counts.call_trace_ids.size(), 1u);
  EXPECT_EQ(*counts.call_trace_ids.begin(), obs::derive_trace_id(11, 0));
}

TEST(TracePropagation, DroppedResponseKeepsHandlerSpanCountInproc) {
  rpc::InProcTransport transport;
  obs::MetricsRegistry metrics;
  transport.set_metrics(&metrics);
  // Frame 2 is the first response: the handler executes, the response
  // vanishes, the resend replays from cache (no second handler span).
  const TracedCounts counts =
      chaos_echo_run(transport, 4, /*drop_frame=*/2, &metrics);
  expect_exactly_one_handler_span_per_call(counts, 4);
  EXPECT_EQ(metrics.counter("rpc.server.replays").value(), 1.0);
}

TEST(TracePropagation, DroppedFrameKeepsTraceIdentityTcp) {
  auto transport = rpc::make_tcp_transport(0);
  obs::MetricsRegistry metrics;
  transport->set_metrics(&metrics);
  const TracedCounts counts =
      chaos_echo_run(*transport, 3, /*drop_frame=*/1, &metrics);
  expect_exactly_one_handler_span_per_call(counts, 3);
  EXPECT_EQ(metrics.counter("rpc.dropped").value(), 1.0);
}

// ---------------------------------------------------------------------------
// Exporter: Prometheus exposition bit-identical with the snapshot.

namespace {

obs::MetricsRegistry& seeded_registry(obs::MetricsRegistry& registry) {
  registry.counter("sim.intervals").add(42);
  registry.counter("job3.scheduler.intervals").add(7);
  registry.gauge("scheduler.liveput_expected_samples").set(123.456789);
  auto& h = registry.histogram("optimize.ms");
  for (int i = 1; i <= 100; ++i) h.observe(i * 0.1);
  return registry;
}

}  // namespace

TEST(Exporter, PrometheusRenderIsDeterministicAndGrammatical) {
  obs::MetricsRegistry registry;
  const std::string prom =
      obs::to_prometheus(seeded_registry(registry).snapshot());
  EXPECT_EQ(prom, obs::to_prometheus(registry.snapshot()));  // deterministic
  // Counters get _total; the job prefix becomes a label.
  EXPECT_NE(prom.find("# TYPE parcae_sim_intervals_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("parcae_sim_intervals_total 42"), std::string::npos);
  EXPECT_NE(prom.find("parcae_scheduler_intervals_total{job=\"3\"} 7"),
            std::string::npos);
  // Histograms expose cumulative buckets ending at +Inf and _sum/_count.
  EXPECT_NE(prom.find("parcae_optimize_ms_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(prom.find("parcae_optimize_ms_count 100"), std::string::npos);
  // Values render through format_metric_value — the same bytes the
  // JSON snapshot holds (no exporter drift).
  EXPECT_NE(prom.find(obs::format_metric_value(123.456789)),
            std::string::npos);
}

TEST(Exporter, PrometheusNameManglesAndPrefixesALeadingDigit) {
  EXPECT_EQ(obs::prometheus_name("scheduler.step-ms"), "scheduler_step_ms");
  EXPECT_EQ(obs::prometheus_name("3rd.pass:ok"), "_3rd_pass:ok");
  EXPECT_EQ(obs::prometheus_name("_x"), "_x");
  EXPECT_EQ(obs::prometheus_name(""), "");
}

TEST(Exporter, SnapshotJsonExposesBucketBoundaries) {
  obs::MetricsRegistry registry;
  const std::string json = seeded_registry(registry).snapshot().to_json();
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
  EXPECT_NE(json.find("\"le\":"), std::string::npos);
  const std::string csv = registry.snapshot().to_csv();
  EXPECT_NE(csv.find("bucket,optimize.ms.le="), std::string::npos);
}

TEST(Exporter, FleetRollupSumsMaxesAndMergesHistograms) {
  obs::MetricsRegistry registry;
  registry.counter("job0.sim.preemptions").add(3);
  registry.counter("job1.sim.preemptions").add(5);
  registry.gauge("job0.fleet.normalized_liveput").set(0.25);
  registry.gauge("job1.fleet.normalized_liveput").set(0.75);
  registry.histogram("job0.optimize.ms").observe(1.0);
  registry.histogram("job1.optimize.ms").observe(100.0);
  registry.counter("fleet.grants").add(9);  // pass-through

  obs::FleetAggregator aggregator;
  aggregator.fold(registry.snapshot());
  const obs::MetricsSnapshot rollup = aggregator.rollup();
  EXPECT_EQ(aggregator.jobs(), 2);
  EXPECT_EQ(rollup.counter_or("fleet.sim.preemptions"), 8.0);
  EXPECT_EQ(rollup.gauge_or("fleet.fleet.normalized_liveput"), 1.0);
  EXPECT_EQ(rollup.gauge_or("fleet.fleet.normalized_liveput.max"), 0.75);
  EXPECT_EQ(rollup.counter_or("fleet.grants"), 9.0);
  EXPECT_EQ(rollup.gauge_or("fleet.jobs"), 2.0);
  // The merged histogram is exactly the histogram both observations
  // would have produced in one instrument.
  const auto it = rollup.histograms.find("fleet.optimize.ms");
  ASSERT_NE(it, rollup.histograms.end());
  EXPECT_EQ(it->second.count, 2u);
  obs::Histogram reference;
  reference.observe(1.0);
  reference.observe(100.0);
  EXPECT_EQ(it->second.quantile(0.5), reference.quantile(0.5));
}

// ---------------------------------------------------------------------------
// ObsService: the obs.metrics endpoint over the wire.

TEST(ObsService, ScrapeMatchesRegistrySnapshotBitForBit) {
  obs::MetricsRegistry registry;
  seeded_registry(registry);

  rpc::InProcTransport transport;
  rpc::RpcServer server(transport);
  rpc::ObsService service(registry);
  service.bind(server);
  server.start();

  rpc::RpcClient client(transport, "scraper");
  rpc::ObsClient obs_client(client);
  EXPECT_EQ(obs_client.scrape(), obs::to_prometheus(registry.snapshot()));
  EXPECT_EQ(obs_client.scrape_json(), registry.snapshot().to_json());

  // A scrape is live, not cached: new observations show up.
  registry.counter("sim.intervals").add(1);
  EXPECT_EQ(obs_client.scrape(), obs::to_prometheus(registry.snapshot()));
}

TEST(ObsService, ExportFaultPointFiresAndTrainingStateIsUntouched) {
  obs::MetricsRegistry registry;
  registry.counter("sim.intervals").add(1);

  rpc::InProcTransport transport;
  rpc::RpcServer server(transport);
  rpc::ObsService service(registry);
  FaultInjector faults(9);
  FaultTrigger trigger;
  trigger.nth = 1;
  trigger.one_shot = true;
  faults.arm("obs.export", trigger);
  service.set_fault_injector(&faults);
  service.bind(server);
  server.start();

  rpc::RpcClient client(transport, "scraper");
  rpc::ObsClient obs_client(client);
  try {
    obs_client.scrape();
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.point(), "obs.export");
  }
  // Export is observation-only: the registry is untouched and the next
  // scrape succeeds.
  EXPECT_EQ(registry.counter("sim.intervals").value(), 1.0);
  EXPECT_EQ(obs_client.scrape(), obs::to_prometheus(registry.snapshot()));
}

// ---------------------------------------------------------------------------
// SLO rule engine.

TEST(Slo, ParsesTheGrammarAndRejectsMalformedSpecs) {
  std::string error;
  const auto rules = SloEngine::parse_rules(
      "a:rate:rpc.client.retries:>8;b:drop:liveput_expected_samples:>50:for=2",
      &error);
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "a");
  EXPECT_EQ(rules[0].signal, SloSignal::kCounterRate);
  EXPECT_EQ(rules[0].threshold, 8.0);
  EXPECT_EQ(rules[0].for_intervals, 1);
  EXPECT_EQ(rules[1].signal, SloSignal::kSeriesDropPct);
  EXPECT_EQ(rules[1].for_intervals, 2);

  EXPECT_TRUE(SloEngine::parse_rules("nope", &error).empty());
  EXPECT_NE(error.find("expected"), std::string::npos);
  EXPECT_TRUE(SloEngine::parse_rules("a:bogus:m:>1", &error).empty());
  EXPECT_NE(error.find("unknown signal"), std::string::npos);
  EXPECT_TRUE(SloEngine::parse_rules("a:rate:m:=1", &error).empty());
  EXPECT_TRUE(SloEngine::parse_rules("a:rate:m:>x", &error).empty());
  EXPECT_TRUE(SloEngine::parse_rules("a:rate:m:>1:for=0", &error).empty());
  EXPECT_TRUE(SloEngine::parse_rules("", &error).empty());
  EXPECT_FALSE(SloEngine::default_rules().empty());
}

TEST(Slo, RateRuleFiresOnDeltaAndReArmsAfterRecovery) {
  obs::MetricsRegistry metrics;
  SloEngine engine(
      SloEngine::parse_rules("storm:rate:rpc.client.retries:>2"));
  engine.set_metrics(&metrics);

  metrics.counter("rpc.client.retries").add(3);
  EXPECT_EQ(engine.evaluate(0, 0.0).size(), 1u);   // delta 3 > 2
  metrics.counter("rpc.client.retries").add(4);
  EXPECT_EQ(engine.evaluate(1, 60.0).size(), 0u);  // same episode
  EXPECT_EQ(engine.evaluate(2, 120.0).size(), 0u); // delta 0: recovered
  metrics.counter("rpc.client.retries").add(5);
  EXPECT_EQ(engine.evaluate(3, 180.0).size(), 1u); // new episode
  EXPECT_EQ(engine.alerts().size(), 2u);
  EXPECT_EQ(engine.alerts()[0].rule, "storm");
  EXPECT_EQ(engine.alerts()[0].value, 3.0);
}

TEST(Slo, DropRuleWatchesSeriesAgainstTrailingMaxWithHysteresis) {
  obs::TimeSeriesRecorder series;
  SloEngine engine(
      SloEngine::parse_rules("dip:drop:liveput:>50:for=2"));
  engine.set_timeseries(&series);

  const auto row = [&series](double value) {
    series.begin_row();
    series.set("liveput", value);
  };
  row(100.0);
  EXPECT_TRUE(engine.evaluate(0, 0.0).empty());    // at max
  row(40.0);
  EXPECT_TRUE(engine.evaluate(1, 60.0).empty());   // breach 1 of 2
  row(45.0);
  const auto fired = engine.evaluate(2, 120.0);    // breach 2 of 2
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "dip");
  EXPECT_EQ(fired[0].value, 55.0);                 // 100 -> 45
  EXPECT_EQ(fired[0].interval, 2);
  row(90.0);
  EXPECT_TRUE(engine.evaluate(3, 180.0).empty());  // recovered, re-armed
}

TEST(Slo, AlertsLandInEventLogCountersAndJsonl) {
  obs::MetricsRegistry metrics;
  EventLog events;
  SloEngine engine(SloEngine::parse_rules("paused:rate:paused:>0"));
  engine.set_metrics(&metrics);
  engine.set_event_log(&events);

  metrics.counter("paused").add(1);
  ASSERT_EQ(engine.evaluate(4, 240.0).size(), 1u);
  EXPECT_EQ(metrics.counter("obs.alerts_fired").value(), 1.0);
  EXPECT_EQ(metrics.counter("obs.alerts_fired.paused").value(), 1.0);
  const auto alerts = events.by_category(EventCategory::kAlert);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_NE(alerts[0]->message.find("paused"), std::string::npos);
  EXPECT_EQ(alerts[0]->fields.at("metric"), "paused");
  const std::string jsonl = engine.to_jsonl();
  EXPECT_EQ(jsonl,
            "{\"interval\":4,\"t\":240,\"rule\":\"paused\","
            "\"metric\":\"paused\",\"value\":1,\"threshold\":0}\n");
}

TEST(Slo, SameRunProducesIdenticalAlertJsonl) {
  const auto run = []() {
    obs::MetricsRegistry metrics;
    SloEngine engine(SloEngine::parse_rules("r:rate:c:>1"));
    engine.set_metrics(&metrics);
    for (int i = 0; i < 8; ++i) {
      metrics.counter("c").add(i % 3);
      engine.evaluate(i, i * 60.0);
    }
    return engine.to_jsonl();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST(Slo, AlertFaultPointSuppressesDeliveryButCountsIt) {
  obs::MetricsRegistry metrics;
  SloEngine engine(SloEngine::parse_rules("r:rate:c:>0"));
  engine.set_metrics(&metrics);
  FaultInjector faults(3);
  FaultTrigger trigger;
  trigger.nth = 1;
  trigger.one_shot = true;
  faults.arm("obs.alert", trigger);
  engine.set_fault_injector(&faults);

  metrics.counter("c").add(1);
  EXPECT_TRUE(engine.evaluate(0, 0.0).empty());  // fired but suppressed
  EXPECT_EQ(engine.suppressed(), 1u);
  EXPECT_EQ(engine.alerts().size(), 0u);
  EXPECT_EQ(metrics.counter("obs.alerts_suppressed").value(), 1.0);
  // The episode still counts as fired: no re-fire while it persists.
  metrics.counter("c").add(1);
  EXPECT_TRUE(engine.evaluate(1, 60.0).empty());
  // Recovery then a fresh breach delivers normally.
  engine.evaluate(2, 120.0);
  metrics.counter("c").add(1);
  EXPECT_EQ(engine.evaluate(3, 180.0).size(), 1u);
}

TEST(Slo, FleetSnapshotSourceOverridesRegistry) {
  obs::MetricsSnapshot rollup;
  rollup.counters["fleet.sim.preemptions"] = 12.0;
  rollup.gauges["fleet.share_deviation.arbiter"] = 0.4;
  SloEngine engine(SloEngine::parse_rules(
      "churn:rate:fleet.sim.preemptions:>10;"
      "unfair:gauge:fleet.share_deviation.arbiter:>0.3"));
  engine.set_snapshot(&rollup);
  EXPECT_EQ(engine.evaluate(0, 0.0).size(), 2u);
  engine.set_snapshot(nullptr);
}

// ---------------------------------------------------------------------------
// trace_tool merge.

namespace {

// Two writers simulating a client and a server process sharing one
// trace: the server span is parented under the client span.
std::pair<std::string, std::string> two_process_trace() {
  obs::TraceWriter client;
  obs::TraceWriter server;
  client.enable_trace_ids(obs::fork_trace_seed(3, 1));
  server.enable_trace_ids(obs::fork_trace_seed(3, 2));
  const std::uint64_t trace = obs::derive_trace_id(3, 0);

  const std::uint64_t call_span = client.next_span_id();
  client.begin("rpc.call.kv.put", "rpc",
               obs::TraceContext{trace, call_span}, 0);
  const std::uint64_t handle_span = server.next_span_id();
  server.begin("rpc.handle.kv.put", "rpc",
               obs::TraceContext{trace, handle_span}, call_span);
  server.end("rpc.handle.kv.put", "rpc");
  client.end("rpc.call.kv.put", "rpc");
  return {client.to_json(), server.to_json()};
}

}  // namespace

TEST(TraceMerge, DrawsCrossProcessFlowArrows) {
  const auto [client_json, server_json] = two_process_trace();
  std::string error;
  obs::TraceMergeStats stats;
  const std::string merged = obs::merge_traces(
      {{"client", client_json}, {"server", server_json}}, &error, &stats);
  ASSERT_FALSE(merged.empty()) << error;
  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.traces, 1u);
  EXPECT_EQ(stats.flow_arrows, 1u);
  // Both process tracks are labeled, and the arrow is an s/f pair.
  EXPECT_NE(merged.find("\"client\""), std::string::npos);
  EXPECT_NE(merged.find("\"server\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(merged.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(merged.find("\"bp\":\"e\""), std::string::npos);
  // Merging is deterministic.
  EXPECT_EQ(merged,
            obs::merge_traces(
                {{"client", client_json}, {"server", server_json}}, &error));
}

TEST(TraceMerge, SameProcessParentingDrawsNoArrow) {
  obs::TraceWriter writer;
  writer.enable_trace_ids(obs::fork_trace_seed(4, 1));
  {
    obs::TraceContextScope root(
        obs::TraceContext{obs::derive_trace_id(4, 0), 0});
    obs::ProfileSpan outer("outer", nullptr, &writer);
    obs::ProfileSpan inner("inner", nullptr, &writer);
    (void)outer;
    (void)inner;
  }
  std::string error;
  obs::TraceMergeStats stats;
  const std::string merged =
      obs::merge_traces({{"solo", writer.to_json()}}, &error, &stats);
  ASSERT_FALSE(merged.empty()) << error;
  EXPECT_EQ(stats.flow_arrows, 0u);  // parenting is intra-process
  EXPECT_EQ(stats.traces, 1u);
}

TEST(TraceMerge, RejectsMalformedInputWithDiagnostic) {
  std::string error;
  EXPECT_TRUE(obs::merge_traces({{"bad", "{\"traceEvents\":"}}, &error)
                  .empty());
  EXPECT_NE(error.find("bad"), std::string::npos);  // names the input
}

TEST(TraceMerge, MergedOutputParsesAsItsOwnInput) {
  const auto [client_json, server_json] = two_process_trace();
  std::string error;
  const std::string merged = obs::merge_traces(
      {{"client", client_json}, {"server", server_json}}, &error);
  ASSERT_FALSE(merged.empty()) << error;
  // The merger must emit JSON its own parser accepts (round-trip).
  obs::TraceMergeStats stats;
  const std::string again =
      obs::merge_traces({{"merged", merged}}, &error, &stats);
  EXPECT_FALSE(again.empty()) << error;
  EXPECT_GE(stats.events, 4u);
}
