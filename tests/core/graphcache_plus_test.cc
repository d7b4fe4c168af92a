#include "core/graphcache_plus.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.hpp"
#include "graph/generators.hpp"

namespace gcp {
namespace {

using testing::MakeCycle;
using testing::MakePath;
using testing::MakeSingleton;

std::vector<Graph> SmallMolecules() {
  // A tiny, hand-readable dataset over labels {0 (C), 1 (O), 2 (N)}.
  std::vector<Graph> ds;
  ds.push_back(MakePath({0, 0, 1}));        // 0: C-C-O
  ds.push_back(MakePath({0, 1}));           // 1: C-O
  ds.push_back(MakeCycle({0, 0, 0}));       // 2: C-ring
  ds.push_back(MakePath({2, 0, 1}));        // 3: N-C-O
  ds.push_back(MakeSingleton(2));           // 4: lone N
  return ds;
}

GraphCachePlusOptions DefaultOptions(CacheModel model = CacheModel::kCon) {
  GraphCachePlusOptions opts;
  opts.model = model;
  return opts;
}

TEST(GraphCachePlusTest, ColdCacheAnswersCorrectly) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  // This test pins the bare Method M path: every FTV candidate verified.
  // The fragment tier would prune candidates even cold (its gates live in
  // fragment_equivalence_test), so it is the oracle config here.
  GraphCachePlusOptions opts = DefaultOptions();
  opts.fragment_capacity = 0;
  GraphCachePlus gc(&ds, opts);
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 1, 3}));
  EXPECT_EQ(r.metrics.si_tests, 5u);
  EXPECT_EQ(r.metrics.candidates_initial, 5u);
}

TEST(GraphCachePlusTest, RepeatedQueryIsExactHitWithZeroTests) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  const QueryResult r1 = gc.SubgraphQuery(MakePath({0, 1}));
  const QueryResult r2 = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(r1.answer, r2.answer);
  EXPECT_TRUE(r2.metrics.exact_hit);
  EXPECT_EQ(r2.metrics.si_tests, 0u);
  // Exact hits are not re-admitted: still one resident entry.
  EXPECT_EQ(gc.cache_manager().resident(), 1u);
  EXPECT_EQ(gc.aggregate().exact_hits, 1u);
  EXPECT_EQ(gc.aggregate().exact_hits_zero_test, 1u);
}

TEST(GraphCachePlusTest, SubgraphHitPrunesAndPreservesAnswers) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  gc.SubgraphQuery(MakePath({2, 0, 1}));  // N-C-O: answer {3}
  const QueryResult r = gc.SubgraphQuery(MakePath({2, 0}));  // N-C ⊆ N-C-O
  EXPECT_EQ(r.answer, (std::vector<GraphId>{3}));
  EXPECT_GE(r.metrics.sub_hits, 1u);
  EXPECT_GE(r.metrics.tests_saved_sub, 1u);
  EXPECT_LT(r.metrics.si_tests, 5u);
}

TEST(GraphCachePlusTest, SupergraphHitPrunesNegatives) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  // Cache a small query first: C-O has answer {0,1,3}; negatives {2,4}.
  gc.SubgraphQuery(MakePath({0, 1}));
  // Now a supergraph of it: C-C-O. Graphs 2 and 4 (valid negatives of the
  // cached subgraph) are pruned from its candidate set by formula (5).
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 0, 1}));
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0}));
  EXPECT_GE(r.metrics.super_hits, 1u);
  EXPECT_GE(r.metrics.tests_saved_super, 2u);
  EXPECT_LE(r.metrics.si_tests, 3u);
}

TEST(GraphCachePlusTest, EmptyAnswerShortcut) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  gc.SubgraphQuery(MakePath({1, 1}));  // O-O: no graph has it → empty
  // Any supergraph of O-O is provably empty too.
  const QueryResult r = gc.SubgraphQuery(MakePath({1, 1, 0}));
  EXPECT_TRUE(r.answer.empty());
  EXPECT_TRUE(r.metrics.empty_shortcut);
  EXPECT_EQ(r.metrics.si_tests, 0u);
}

TEST(GraphCachePlusTest, SupergraphQueryAnswersContainedGraphs) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  // Supergraph query g = C-C-O-N star-ish path: graphs contained in it.
  const Graph g = MakePath({2, 0, 0, 1});  // N-C-C-O
  const QueryResult r = gc.SupergraphQuery(g);
  // Contained: G1 (C-O ⊆ N-C-C-O), G4 (lone N). Not G0 (C-C-O: needs C-C
  // and C-O adjacent — present: vertices 1,2,3 = C,C,O ✓ so G0 included).
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 1, 4}));
}

TEST(GraphCachePlusTest, SupergraphQueryUsesCache) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  const Graph small = MakePath({2, 0});     // N-C
  const Graph big = MakePath({2, 0, 0, 1});  // N-C-C-O contains N-C
  const QueryResult r1 = gc.SupergraphQuery(small);
  const QueryResult r2 = gc.SupergraphQuery(big);
  // Positive transfer: everything contained in `small` is contained in
  // `big` (answers of the cached supergraph query inject directly).
  for (const GraphId id : r1.answer) {
    EXPECT_NE(std::find(r2.answer.begin(), r2.answer.end(), id),
              r2.answer.end());
  }
  EXPECT_GE(r2.metrics.super_hits + r2.metrics.sub_hits, 1u);
}

TEST(GraphCachePlusTest, MixedKindsDoNotCrossContaminate) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  const Graph q = MakePath({0, 1});
  const QueryResult sub = gc.SubgraphQuery(q);
  const QueryResult super = gc.SupergraphQuery(q);
  // Same graph, different semantics; the second must not be an exact hit
  // on the first's entry.
  EXPECT_FALSE(super.metrics.exact_hit);
  EXPECT_EQ(sub.answer, (std::vector<GraphId>{0, 1, 3}));
  EXPECT_EQ(super.answer, (std::vector<GraphId>{1}));
}

TEST(GraphCachePlusTest, EviPurgesConRetains) {
  auto run = [&](CacheModel model) {
    GraphDataset ds;
    ds.Bootstrap(SmallMolecules());
    // Fragment-free: the asserted si_tests counts are the whole-query
    // CON-fade / EVI-purge story, not fragment pruning.
    GraphCachePlusOptions opts = DefaultOptions(model);
    opts.fragment_capacity = 0;
    GraphCachePlus gc(&ds, opts);
    gc.SubgraphQuery(MakePath({0, 1}));
    // UR on graph 0 (a positive result of the cached query): CON must fade
    // exactly that bit; EVI throws the whole cache away.
    ds.RemoveEdge(0, 0, 1).ok();
    const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
    EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 1, 3}));  // C-O edge remains
    return std::make_pair(r.metrics.exact_hit, r.metrics.si_tests);
  };
  const auto [evi_exact, evi_tests] = run(CacheModel::kEvi);
  const auto [con_exact, con_tests] = run(CacheModel::kCon);
  EXPECT_FALSE(evi_exact);  // cache was purged
  EXPECT_EQ(evi_tests, 5u);
  EXPECT_FALSE(con_exact);  // validity on graph 0 was faded (UR, positive)
  EXPECT_EQ(con_tests, 1u); // but only graph 0 needs re-verification
}

TEST(GraphCachePlusTest, ConExactHitSurvivesBenignChange) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions(CacheModel::kCon));
  const QueryResult r1 = gc.SubgraphQuery(MakePath({0, 1}));
  ASSERT_EQ(r1.answer, (std::vector<GraphId>{0, 1, 3}));
  // UA on graph 0 — a positive result; UA-exclusive keeps it valid.
  // Graph 0 is C-C-O (path), add edge closing the triangle.
  ds.AddEdge(0, 0, 2).ok();
  const QueryResult r2 = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_TRUE(r2.metrics.exact_hit);
  EXPECT_EQ(r2.metrics.si_tests, 0u);
  EXPECT_EQ(r2.answer, r1.answer);
}

TEST(GraphCachePlusTest, AnswersStayCorrectAcrossDeletion) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions(CacheModel::kCon));
  gc.SubgraphQuery(MakePath({0, 1}));
  ds.DeleteGraph(1).ok();
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(r.answer, (std::vector<GraphId>{0, 3}));  // id 1 gone
}

TEST(GraphCachePlusTest, NewGraphsAreSeenByOldCachedQueries) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions(CacheModel::kCon));
  gc.SubgraphQuery(MakePath({0, 1}));
  const GraphId id = ds.AddGraph(MakePath({0, 1, 1}));  // contains C-O
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_NE(std::find(r.answer.begin(), r.answer.end(), id), r.answer.end());
  // The new graph required an actual test (cached entry has no knowledge).
  EXPECT_GE(r.metrics.si_tests, 1u);
}

TEST(GraphCachePlusTest, AdmissionDisabledKeepsCacheEmpty) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlusOptions opts = DefaultOptions();
  opts.enable_admission = false;
  GraphCachePlus gc(&ds, opts);
  gc.SubgraphQuery(MakePath({0, 1}));
  gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(gc.cache_manager().resident(), 0u);
  EXPECT_EQ(gc.aggregate().exact_hits, 0u);
  EXPECT_EQ(gc.aggregate().si_tests, 10u);
}

TEST(GraphCachePlusTest, RetrospectiveRefreshRestoresExactHit) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlusOptions opts = DefaultOptions(CacheModel::kCon);
  opts.retrospective_budget = 100;
  GraphCachePlus gc(&ds, opts);
  const QueryResult r1 = gc.SubgraphQuery(MakePath({0, 1}));
  ASSERT_EQ(r1.answer, (std::vector<GraphId>{0, 1, 3}));
  // UR breaks the containment in graph 1 (its only edge is C-O).
  ASSERT_TRUE(ds.RemoveEdge(1, 0, 1).ok());
  const QueryResult r2 = gc.SubgraphQuery(MakePath({0, 1}));
  // Retrospective refresh re-tested graph 1 off the critical path, so the
  // repeated query is an exact hit with zero query-time tests — and the
  // refreshed answer reflects the broken containment.
  EXPECT_TRUE(r2.metrics.exact_hit);
  EXPECT_EQ(r2.metrics.si_tests, 0u);
  EXPECT_EQ(r2.answer, (std::vector<GraphId>{0, 3}));
  EXPECT_GT(gc.cache_manager().stats().total_retro_refreshes, 0u);
}

TEST(GraphCachePlusTest, RetrospectiveRefreshCoversNewGraphs) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlusOptions opts = DefaultOptions(CacheModel::kCon);
  opts.retrospective_budget = 100;
  GraphCachePlus gc(&ds, opts);
  gc.SubgraphQuery(MakePath({0, 1}));
  const GraphId id = ds.AddGraph(MakePath({1, 0, 1}));  // contains C-O
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  // The new graph was pre-verified during sync: exact hit, zero tests,
  // and the new graph appears in the answer.
  EXPECT_TRUE(r.metrics.exact_hit);
  EXPECT_EQ(r.metrics.si_tests, 0u);
  EXPECT_NE(std::find(r.answer.begin(), r.answer.end(), id), r.answer.end());
}

TEST(GraphCachePlusTest, RetrospectiveBudgetIsBounded) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlusOptions opts = DefaultOptions(CacheModel::kCon);
  opts.retrospective_budget = 1;  // only one re-test per sync allowed
  GraphCachePlus gc(&ds, opts);
  gc.SubgraphQuery(MakePath({0, 1}));
  ds.AddGraph(MakePath({1, 0, 1}));
  ds.AddGraph(MakePath({0, 0, 0, 1}));
  gc.SubgraphQuery(MakePath({0, 1}));
  EXPECT_EQ(gc.cache_manager().stats().total_retro_refreshes, 1u);
}

TEST(GraphCachePlusTest, ParallelVerificationMatchesSerial) {
  Rng rng(55);
  std::vector<Graph> graphs;
  for (int i = 0; i < 60; ++i) {
    graphs.push_back(RandomConnectedGraph(rng, 12, 4, 3));
  }
  const Graph q = MakePath({0, 1, 2});
  GraphDataset ds1, ds2;
  ds1.Bootstrap(graphs);
  ds2.Bootstrap(graphs);
  GraphCachePlusOptions serial = DefaultOptions();
  GraphCachePlusOptions parallel = DefaultOptions();
  parallel.verify_threads = 4;
  GraphCachePlus gc1(&ds1, serial), gc2(&ds2, parallel);
  EXPECT_EQ(gc1.SubgraphQuery(q).answer, gc2.SubgraphQuery(q).answer);
}

TEST(GraphCachePlusTest, MetricsBreakdownSumsToQueryTime) {
  GraphDataset ds;
  ds.Bootstrap(SmallMolecules());
  GraphCachePlus gc(&ds, DefaultOptions());
  const QueryResult r = gc.SubgraphQuery(MakePath({0, 1}));
  const auto& m = r.metrics;
  EXPECT_EQ(m.QueryTimeNs(), m.t_validate_ns + m.t_probe_ns + m.t_prune_ns +
                                 m.t_fragment_ns + m.t_verify_ns);
  EXPECT_GE(m.OverheadNs(), 0);
  EXPECT_EQ(m.answer_size, r.answer.size());
}

}  // namespace
}  // namespace gcp
