// End-to-end reproduction of the paper's running example (Figure 2
// timeline with the Figure 3 pruning logic) against a real GraphCachePlus
// instance in CON mode.
//
// Timeline:
//   T0  dataset {G0, G1, G2, G3}, empty CON cache
//   T1  query g' executed and admitted
//   T2  dataset changes: ADD G4, UR on G3
//   T3  query g'' executed and admitted (validation of g' happens here)
//   T4  dataset changes: DEL G0, UA on G1
//   T5  query g executed — facilitated by g' (and the validated state)

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/graphcache_plus.hpp"
#include "graph/canonical.hpp"

namespace gcp {
namespace {

using testing::MakePath;
using testing::MakeSingleton;

constexpr Label kA = 0, kB = 1, kC = 2;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest() {
    std::vector<Graph> initial;
    initial.push_back(MakeSingleton(kA));       // G0: lone A
    {
      Graph g1;                                 // G1: A and B, no edge
      g1.AddVertex(kA);
      g1.AddVertex(kB);
      initial.push_back(g1);
    }
    initial.push_back(MakePath({kA, kB, kC}));  // G2: A-B-C
    initial.push_back(MakePath({kA, kB}));      // G3: A-B
    dataset_.Bootstrap(std::move(initial));

    GraphCachePlusOptions opts;
    opts.model = CacheModel::kCon;
    opts.window_capacity = 100;  // keep everything in window; no merges
    opts.cache_capacity = 100;
    // The paper's timeline has no fragment tier; keep its exact per-step
    // si_tests counts (fragment pruning is gated elsewhere).
    opts.fragment_capacity = 0;
    gc_ = std::make_unique<GraphCachePlus>(&dataset_, opts);
  }

  const CachedQuery* FindEntry(const Graph& q) const {
    const std::uint64_t digest = WlDigest(q);
    const CachedQuery* found = nullptr;
    gc_->cache_manager().ForEachEntry([&](const CachedQuery& e) {
      if (e.digest == digest) found = &e;
    });
    return found;
  }

  GraphDataset dataset_;
  std::unique_ptr<GraphCachePlus> gc_;
};

TEST_F(PaperExampleTest, FullTimeline) {
  const Graph g_prime = MakePath({kA, kB});

  // --- T1: execute g'. Answer must be {G2, G3}. ---------------------------
  const QueryResult r1 = gc_->SubgraphQuery(g_prime);
  EXPECT_EQ(r1.answer, (std::vector<GraphId>{2, 3}));
  EXPECT_EQ(r1.metrics.si_tests, 4u);  // cold cache: everything verified

  // g' resides with full validity over {G0..G3}.
  {
    const CachedQuery* e = FindEntry(g_prime);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->valid.Count(), 4u);
    EXPECT_TRUE(e->answer.Test(2));
    EXPECT_TRUE(e->answer.Test(3));
    EXPECT_FALSE(e->answer.Test(0));
    EXPECT_FALSE(e->answer.Test(1));
  }

  // --- T2: ADD G4 (copy of G2) and UR on G3. ------------------------------
  ASSERT_EQ(dataset_.AddGraph(dataset_.graph(2)), 4u);
  ASSERT_TRUE(dataset_.RemoveEdge(3, 0, 1).ok());

  // --- T3: execute g'' (vertex C). Sync validates g' first. ---------------
  const Graph g_dprime = MakeSingleton(kC);
  const QueryResult r3 = gc_->SubgraphQuery(g_dprime);
  EXPECT_EQ(r3.answer, (std::vector<GraphId>{2, 4}));

  {
    const CachedQuery* e = FindEntry(g_prime);
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->valid.size(), 5u);
    EXPECT_TRUE(e->valid.Test(0));   // untouched
    EXPECT_TRUE(e->valid.Test(1));   // untouched
    EXPECT_TRUE(e->valid.Test(2));   // untouched
    EXPECT_FALSE(e->valid.Test(3));  // UR faded the positive result
    EXPECT_FALSE(e->valid.Test(4));  // newly added graph unknown
    // g'' holds validity towards every graph in the current dataset.
    const CachedQuery* e2 = FindEntry(g_dprime);
    ASSERT_NE(e2, nullptr);
    EXPECT_EQ(e2->valid.Count(), 5u);
  }

  // --- T4: DEL G0 and UA on G1. -------------------------------------------
  ASSERT_TRUE(dataset_.DeleteGraph(0).ok());
  ASSERT_TRUE(dataset_.AddEdge(1, 0, 1).ok());  // G1 becomes A-B

  // --- T5: query g = vertex A, a subgraph of cached g'. -------------------
  const Graph g = MakeSingleton(kA);
  const QueryResult r5 = gc_->SubgraphQuery(g);

  // Validation ran before the query: g' lost G0 (DEL) and G1 (UA upon a
  // negative result); G2 survives everything.
  {
    const CachedQuery* e = FindEntry(g_prime);
    ASSERT_NE(e, nullptr);
    EXPECT_FALSE(e->valid.Test(0));
    EXPECT_FALSE(e->valid.Test(1));
    EXPECT_TRUE(e->valid.Test(2));
    EXPECT_FALSE(e->valid.Test(3));
    EXPECT_FALSE(e->valid.Test(4));
    // Figure 2, final g'' row: CGvalid = {G2, G3, G4}.
    const CachedQuery* e2 = FindEntry(g_dprime);
    ASSERT_NE(e2, nullptr);
    EXPECT_FALSE(e2->valid.Test(0));
    EXPECT_FALSE(e2->valid.Test(1));
    EXPECT_TRUE(e2->valid.Test(2));
    EXPECT_TRUE(e2->valid.Test(3));
    EXPECT_TRUE(e2->valid.Test(4));
  }

  // Answer over the live dataset {G1, G2, G3, G4}: all contain an A vertex.
  EXPECT_EQ(r5.answer, (std::vector<GraphId>{1, 2, 3, 4}));
  // G2 transferred from g' (formula (1)): one sub-iso test alleviated.
  EXPECT_EQ(r5.metrics.tests_saved_sub, 1u);
  EXPECT_EQ(r5.metrics.si_tests, 3u);  // |CS_M| = 4, minus the transfer
  EXPECT_GE(r5.metrics.sub_hits, 1u);
}

TEST_F(PaperExampleTest, EviModelPurgesOnEveryChange) {
  GraphCachePlusOptions opts;
  opts.model = CacheModel::kEvi;
  GraphDataset ds;
  ds.Bootstrap({MakePath({kA, kB}), MakePath({kA, kB, kC})});
  GraphCachePlus evi(&ds, opts);

  const Graph q = MakePath({kA, kB});
  evi.SubgraphQuery(q);
  EXPECT_EQ(evi.cache_manager().resident(), 1u);
  ds.AddEdge(1, 0, 2).ok();  // any change
  evi.SubgraphQuery(q);      // sync purges, then re-admits after execution
  EXPECT_EQ(evi.cache_manager().stats().total_cache_clears, 1u);
  // The re-executed query was verified from scratch (no exact hit).
  EXPECT_EQ(evi.aggregate().exact_hits, 0u);
}

}  // namespace
}  // namespace gcp
