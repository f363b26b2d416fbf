// Tests for the telemetry event log and its integration with the
// ParcaePolicy decision loop.
#include <gtest/gtest.h>

#include <algorithm>

#include "model/model_profile.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "core/telemetry.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

TEST(EventLog, RecordsAndRenders) {
  EventLog log;
  log.record(0.0, EventCategory::kCloud, "preemption",
             {{"available", "26"}});
  log.record(60.0, EventCategory::kMigration, "intra-stage",
             {{"to", "3x8"}});
  EXPECT_EQ(log.size(), 2u);
  const std::string text = log.render();
  EXPECT_NE(text.find("preemption"), std::string::npos);
  EXPECT_NE(text.find("available=26"), std::string::npos);
  EXPECT_NE(text.find("migration"), std::string::npos);
  EXPECT_NE(text.find("to=3x8"), std::string::npos);
}

TEST(EventLog, BoundedCapacityDropsOldest) {
  EventLog log(3);
  for (int i = 0; i < 5; ++i)
    log.record(i, EventCategory::kDecision, std::to_string(i));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.events().front().message, "2");
  EXPECT_EQ(log.events().back().message, "4");
}

TEST(EventLog, CategoryQueriesAndHistogram) {
  EventLog log;
  log.record(0, EventCategory::kCloud, "a");
  log.record(1, EventCategory::kCloud, "b");
  log.record(2, EventCategory::kMigration, "c");
  EXPECT_EQ(log.by_category(EventCategory::kCloud).size(), 2u);
  EXPECT_EQ(log.by_category(EventCategory::kWarning).size(), 0u);
  const auto hist = log.histogram();
  EXPECT_EQ(hist.at(EventCategory::kCloud), 2u);
  EXPECT_EQ(hist.at(EventCategory::kMigration), 1u);
}

TEST(EventLog, RenderLastN) {
  EventLog log;
  for (int i = 0; i < 10; ++i)
    log.record(i, EventCategory::kDecision, "msg" + std::to_string(i));
  const std::string tail = log.render(2);
  EXPECT_EQ(tail.find("msg7"), std::string::npos);
  EXPECT_NE(tail.find("msg8"), std::string::npos);
  EXPECT_NE(tail.find("msg9"), std::string::npos);
}

TEST(EventLog, ZeroCapacityDropsEverythingWithoutStoring) {
  EventLog log(0);
  for (int i = 0; i < 4; ++i)
    log.record(i, EventCategory::kDecision, "x");
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 4u);
  EXPECT_TRUE(log.events().empty());
  EXPECT_TRUE(log.render().empty());
}

TEST(EventLog, DroppedCountsAcrossRepeatedWraparound) {
  EventLog log(2);
  for (int i = 0; i < 100; ++i)
    log.record(i, EventCategory::kDecision, std::to_string(i));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 98u);
  EXPECT_EQ(log.events().front().message, "98");
  EXPECT_EQ(log.events().back().message, "99");
}

TEST(EventLog, RenderLastNLargerThanSizeRendersAll) {
  EventLog log;
  for (int i = 0; i < 3; ++i)
    log.record(i, EventCategory::kDecision, "msg" + std::to_string(i));
  const std::string all = log.render(100);
  EXPECT_NE(all.find("msg0"), std::string::npos);
  EXPECT_NE(all.find("msg2"), std::string::npos);
  EXPECT_EQ(all, log.render());
}

TEST(EventLog, ByCategoryPointersStayValidAfterEvictions) {
  EventLog log(4);
  for (int i = 0; i < 16; ++i)
    log.record(i, EventCategory::kMigration,
               std::string("m").append(std::to_string(i)));
  // Pointers taken *after* the evictions reference live events; they
  // must stay usable while no further record() happens.
  const auto migrations = log.by_category(EventCategory::kMigration);
  ASSERT_EQ(migrations.size(), 4u);
  EXPECT_EQ(migrations.front()->message, "m12");
  EXPECT_EQ(migrations.back()->message, "m15");
  for (const TelemetryEvent* event : migrations)
    EXPECT_EQ(event->category, EventCategory::kMigration);
}

TEST(EventLog, ToJsonlEscapesAndStaysOneLinePerEvent) {
  EventLog log;
  log.record(60.0, EventCategory::kWarning, "quote \" backslash \\ tab \t",
             {{"multi\nline", "ctrl \x01 char"}});
  log.record(120.0, EventCategory::kMigration, "plain", {{"to", "3x8"}});
  const std::string jsonl = log.to_jsonl();
  // Exactly one '\n' per event, and none embedded in the payload.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\\\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\\"), std::string::npos);
  EXPECT_NE(jsonl.find("\\t"), std::string::npos);
  EXPECT_NE(jsonl.find("\\n"), std::string::npos);
  EXPECT_NE(jsonl.find("\\u0001"), std::string::npos);
  EXPECT_NE(jsonl.find("\"category\":\"warning\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"to\":\"3x8\""), std::string::npos);
}

TEST(ParcaePolicyTelemetry, AuditTrailCoversCloudDecisionsAndMigrations) {
  ParcaePolicy policy(gpt2_profile(), {});
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  simulate(policy, trace, {});
  const EventLog& log = policy.telemetry();
  EXPECT_GT(log.size(), 0u);
  // The trace has 17 cloud events; every one must be in the log.
  EXPECT_EQ(log.by_category(EventCategory::kCloud).size(), 17u);
  // At least the initial configuration shows up as a decision +
  // migration pair.
  EXPECT_GE(log.by_category(EventCategory::kDecision).size(), 1u);
  EXPECT_GE(log.by_category(EventCategory::kMigration).size() +
                log.by_category(EventCategory::kCheckpoint).size(),
            1u);
}

TEST(ParcaePolicyTelemetry, ResetClearsTheLog) {
  ParcaePolicy policy(gpt2_profile(), {});
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  simulate(policy, trace, {});
  EXPECT_GT(policy.telemetry().size(), 0u);
  policy.reset();
  EXPECT_EQ(policy.telemetry().size(), 0u);
}

TEST(ParcaePolicyTelemetry, HysteresisDecisionsAreExplained) {
  // On HA-DP the proactive policy holds its depth through brief dips;
  // the "why" must be in the audit trail.
  ParcaePolicy policy(gpt2_profile(), {});
  simulate(policy, canonical_segment(TraceSegment::kHighAvailDense), {});
  bool saw_hold = false;
  for (const auto* event :
       policy.telemetry().by_category(EventCategory::kDecision))
    saw_hold = saw_hold || event->message == "hysteresis held depth";
  EXPECT_TRUE(saw_hold);
}

}  // namespace
}  // namespace parcae
