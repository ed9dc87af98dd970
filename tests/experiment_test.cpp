// Unit tests for the experiment harness plumbing: aggregation math,
// relative metrics, and table rendering (CLI parsing lives in
// experiment_cli_test.cpp).
#include <gtest/gtest.h>

#include <cstdio>

#include "experiment/aggregate.hpp"
#include "experiment/table.hpp"

namespace lockss::experiment {
namespace {

TEST(AggregateTest, MeanMinMax) {
  const Aggregate agg = aggregate({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(agg.mean, 2.0);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 3.0);
  EXPECT_EQ(agg.n, 3u);
  EXPECT_EQ(aggregate({}).n, 0u);
}

RunResult result_with(uint64_t successes, double gap_days, double effort, double adv_effort) {
  RunResult r;
  r.report.successful_polls = successes;
  r.report.mean_success_gap_days = gap_days;
  r.report.loyal_effort_seconds = effort;
  r.report.adversary_effort_seconds = adv_effort;
  r.report.effort_per_successful_poll =
      successes > 0 ? effort / static_cast<double>(successes) : 0.0;
  r.report.cost_ratio = effort > 0 ? adv_effort / effort : 0.0;
  return r;
}

TEST(RelativeMetricsTest, RatiosAgainstBaseline) {
  const RunResult baseline = result_with(100, 90.0, 100000.0, 0.0);
  const RunResult attack = result_with(50, 180.0, 120000.0, 240000.0);
  const RelativeMetrics rel = relative_metrics(attack, baseline);
  EXPECT_NEAR(rel.delay_ratio, 2.0, 1e-9);
  // friction: (120000/50) / (100000/100) = 2400/1000.
  EXPECT_NEAR(rel.friction, 2.4, 1e-9);
  EXPECT_NEAR(rel.cost_ratio, 2.0, 1e-9);
}

TEST(RelativeMetricsTest, TotalBlackoutGivesBoundedDelay) {
  const RunResult baseline = result_with(100, 90.0, 100000.0, 0.0);
  RunResult attack = result_with(0, 0.0, 50000.0, 0.0);
  const RelativeMetrics rel = relative_metrics(attack, baseline);
  EXPECT_DOUBLE_EQ(rel.delay_ratio, 100.0);  // lower bound: as if 1 success
}

TEST(CombineResultsTest, SumsAndWeights) {
  RunResult a = result_with(100, 90.0, 100000.0, 0.0);
  RunResult b = result_with(50, 180.0, 80000.0, 0.0);
  a.report.alarms = 1;
  b.report.alarms = 2;
  a.polls_started = 110;
  b.polls_started = 60;
  const RunResult combined = combine_results({a, b});
  EXPECT_EQ(combined.report.successful_polls, 150u);
  EXPECT_EQ(combined.report.alarms, 3u);
  EXPECT_EQ(combined.polls_started, 170u);
  // Success-weighted gap: (90*100 + 180*50) / 150 = 120.
  EXPECT_NEAR(combined.report.mean_success_gap_days, 120.0, 1e-9);
  // Pooled friction numerator: 180000 / 150 = 1200.
  EXPECT_NEAR(combined.report.effort_per_successful_poll, 1200.0, 1e-9);
}

TEST(TableWriterTest, FormattingHelpers) {
  EXPECT_EQ(TableWriter::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(TableWriter::fixed(10.0, 0), "10");
  EXPECT_EQ(TableWriter::scientific(0.000123, 2), "1.23e-04");
}

TEST(TableWriterTest, CsvMirror) {
  const std::string path = "/tmp/lockss_table_test.csv";
  {
    TableWriter table({"a", "b"}, path);
    table.header();
    table.row({"1", "x"});
    table.row({"2", "y"});
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "a,b\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "1,x\n");
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lockss::experiment
