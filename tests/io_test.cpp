// Tests for trace CSV I/O: round trips, hand-written input, malformed
// input and file save/load.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "trace/trace_io.h"

namespace parcae {
namespace {

// ---------------------------------------------------------------------------
// Trace CSV.

TEST(TraceIo, RoundTripsCanonicalSegments) {
  for (const SpotTrace& trace : all_canonical_segments()) {
    const std::string csv = trace_to_csv(trace);
    const auto loaded = trace_from_csv(csv);
    ASSERT_TRUE(loaded.has_value()) << trace.name();
    EXPECT_EQ(loaded->name(), trace.name());
    EXPECT_EQ(loaded->initial_instances(), trace.initial_instances());
    EXPECT_EQ(loaded->capacity(), trace.capacity());
    EXPECT_DOUBLE_EQ(loaded->duration_s(), trace.duration_s());
    EXPECT_EQ(loaded->availability_series(), trace.availability_series());
  }
}

TEST(TraceIo, ParsesHandWrittenCsv) {
  const std::string csv =
      "# name: my-zone\n"
      "initial,capacity,duration_s\n"
      "10,16,600\n"
      "time_s,delta\n"
      "120,-2\n"
      "300,3\n";
  const auto trace = trace_from_csv(csv);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->name(), "my-zone");
  EXPECT_EQ(trace->instances_at(60.0), 10);
  EXPECT_EQ(trace->instances_at(150.0), 8);
  EXPECT_EQ(trace->instances_at(400.0), 11);
}

TEST(TraceIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(trace_from_csv("", &error).has_value());
  EXPECT_FALSE(trace_from_csv("initial,capacity,duration_s\n", &error)
                   .has_value());
  EXPECT_FALSE(
      trace_from_csv("initial,capacity,duration_s\nnope,16,600\n", &error)
          .has_value());
  EXPECT_FALSE(error.empty());
  // Bad metadata: initial above capacity.
  EXPECT_FALSE(trace_from_csv("initial,capacity,duration_s\n20,16,600\n"
                              "time_s,delta\n",
                              &error)
                   .has_value());
  // Bad event row.
  EXPECT_FALSE(trace_from_csv("initial,capacity,duration_s\n10,16,600\n"
                              "time_s,delta\n120,abc\n",
                              &error)
                   .has_value());
}

TEST(TraceIo, SaveAndLoadFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "parcae_trace_test.csv";
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailDense);
  ASSERT_TRUE(save_trace(path.string(), trace));
  const auto loaded = load_trace(path.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->availability_series(), trace.availability_series());
  std::filesystem::remove(path);
  std::string error;
  EXPECT_FALSE(load_trace(path.string(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace parcae
