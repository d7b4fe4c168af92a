#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace gcp {
namespace {

QueryMetrics SampleMetrics() {
  QueryMetrics m;
  m.query_id = 7;
  m.candidates_initial = 100;
  m.candidates_final = 40;
  m.si_tests = 40;
  m.tests_saved_sub = 35;
  m.tests_saved_super = 25;
  m.answer_size = 12;
  m.sub_hits = 2;
  m.super_hits = 1;
  m.fragment_star_checks = 17;
  m.t_validate_ns = 1000;
  m.t_probe_ns = 2000;
  m.t_prune_ns = 500;
  m.t_verify_ns = 100000;
  m.t_maintenance_ns = 3000;
  return m;
}

TEST(QueryMetricsTest, QueryTimeIsCriticalPathSum) {
  const QueryMetrics m = SampleMetrics();
  EXPECT_EQ(m.QueryTimeNs(), 1000 + 2000 + 500 + 100000);
  EXPECT_EQ(m.OverheadNs(), 3000);
}

TEST(AggregateMetricsTest, StartsZeroed) {
  const AggregateMetrics a;
  EXPECT_EQ(a.queries, 0u);
  EXPECT_DOUBLE_EQ(a.AvgQueryTimeMs(), 0.0);
  EXPECT_DOUBLE_EQ(a.AvgOverheadMs(), 0.0);
  EXPECT_DOUBLE_EQ(a.AvgSiTests(), 0.0);
  EXPECT_DOUBLE_EQ(a.ValidationShareOfOverhead(), 0.0);
}

TEST(AggregateMetricsTest, AddAccumulates) {
  AggregateMetrics a;
  a.Add(SampleMetrics());
  a.Add(SampleMetrics());
  EXPECT_EQ(a.queries, 2u);
  EXPECT_EQ(a.si_tests, 80u);
  EXPECT_EQ(a.tests_saved_sub, 70u);
  EXPECT_EQ(a.tests_saved_super, 50u);
  EXPECT_EQ(a.sub_hits, 4u);
  EXPECT_EQ(a.super_hits, 2u);
  EXPECT_EQ(a.fragment_star_checks, 34u);
  EXPECT_DOUBLE_EQ(a.AvgSiTests(), 40.0);
  EXPECT_NEAR(a.AvgQueryTimeMs(), 0.1035, 1e-9);
  EXPECT_NEAR(a.AvgOverheadMs(), 0.003, 1e-9);
}

TEST(AggregateMetricsTest, ExactHitCounting) {
  AggregateMetrics a;
  QueryMetrics hit = SampleMetrics();
  hit.exact_hit = true;
  hit.si_tests = 0;
  a.Add(hit);
  QueryMetrics hit_with_tests = SampleMetrics();
  hit_with_tests.exact_hit = true;
  hit_with_tests.si_tests = 3;
  a.Add(hit_with_tests);
  EXPECT_EQ(a.exact_hits, 2u);
  EXPECT_EQ(a.exact_hits_zero_test, 1u);
}

TEST(AggregateMetricsTest, EmptyShortcutCounting) {
  AggregateMetrics a;
  QueryMetrics m = SampleMetrics();
  m.empty_shortcut = true;
  a.Add(m);
  EXPECT_EQ(a.empty_shortcuts, 1u);
}

TEST(AggregateMetricsTest, ValidationShare) {
  AggregateMetrics a;
  QueryMetrics m;
  m.t_validate_ns = 25;
  m.t_maintenance_ns = 75;
  a.Add(m);
  EXPECT_DOUBLE_EQ(a.ValidationShareOfOverhead(), 0.25);
}

TEST(AggregateMetricsTest, ToStringMentionsKeyCounters) {
  AggregateMetrics a;
  a.Add(SampleMetrics());
  const std::string s = a.ToString();
  EXPECT_NE(s.find("queries=1"), std::string::npos);
  EXPECT_NE(s.find("si_tests=40"), std::string::npos);
  EXPECT_NE(s.find("fragment_star_checks=17"), std::string::npos);
}

}  // namespace
}  // namespace gcp
