// Tests for the experiment matrix runner and reporting.
#include <gtest/gtest.h>

#include "analysis/experiment.h"

namespace parcae {
namespace {

MatrixOptions tiny_matrix() {
  MatrixOptions options;
  options.models = {gpt2_profile()};
  options.traces = {canonical_segment(TraceSegment::kHighAvailSparse)};
  return options;
}

TEST(ExperimentMatrix, RunsEveryCell) {
  const auto cells = run_matrix(tiny_matrix());
  EXPECT_EQ(cells.size(), standard_policies().size());
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.model, "GPT-2");
    EXPECT_EQ(cell.trace, "HA-SP");
    EXPECT_GE(cell.result.committed_units, 0.0);
  }
}

TEST(ExperimentMatrix, SummaryReferencesParcae) {
  const auto cells = run_matrix(tiny_matrix());
  const auto summary = summarize(cells);
  ASSERT_EQ(summary.size(), standard_policies().size());
  for (const auto& s : summary) {
    EXPECT_EQ(s.cells, 1);
    if (s.system == "Parcae") {
      EXPECT_NEAR(s.parcae_speedup_geomean, 1.0, 1e-9);
      EXPECT_EQ(s.cells_no_progress, 0);
    }
    if (s.system == "Varuna" || s.system == "Bamboo") {
      EXPECT_GT(s.parcae_speedup_geomean, 1.0);
    }
  }
}

TEST(ExperimentMatrix, MarkdownContainsEveryCell) {
  const auto cells = run_matrix(tiny_matrix());
  const auto summary = summarize(cells);
  const std::string md = matrix_to_markdown(cells, summary);
  for (const auto& spec : standard_policies())
    EXPECT_NE(md.find(spec.name), std::string::npos) << spec.name;
  EXPECT_NE(md.find("| GPT-2 | HA-SP |"), std::string::npos);
  EXPECT_NE(md.find("geometric-mean"), std::string::npos);
}

TEST(ExperimentMatrix, DeterministicAcrossRuns) {
  const auto a = run_matrix(tiny_matrix());
  const auto b = run_matrix(tiny_matrix());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].result.committed_units,
                     b[i].result.committed_units);
}

}  // namespace
}  // namespace parcae
