// Fragment-cache equivalence gate (PR 9):
//
// The fragment tier is pruning-only: over a 300-step churn of
// interleaved queries and dataset changes, an engine with the sub-pattern
// fragment cache ON must replay the fragment-free engine bit-exactly —
// same answers every step (both checked against an uncached Method M
// ground truth), same resident whole-query population with identical
// CGvalid/answer indicators, same admission/dedup/eviction/hit counters —
// across {CON, EVI} × {lock, epoch} × shards {1, 8}. The fragment
// counters ride along to prove the tier actually engaged: fragments were
// admitted, probed, intersected, and (CON) reconciled or (EVI) purged.
// A miss checks each star only on the candidates still alive, so the
// star-check count stays strictly below one full pass over CS_M per
// computed star; the top-up test pins how a partially valid resident is
// completed by the next query and merged.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "match/fragments.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

std::vector<Graph> ChurnCorpus(std::uint64_t seed) {
  AidsLikeOptions opts;
  opts.num_graphs = 120;
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;  // dense label space → shared one-hop stars
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineUnderTest {
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           bool epoch, std::size_t shards, bool fragments,
                           bool admission, bool ftv = true) {
  EngineUnderTest e;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = shards;
  opts.epoch_reads = epoch;
  opts.use_ftv_index = ftv;
  // Small enough that the churn exercises fragment LRU eviction too; 0
  // is the fragment-free oracle.
  opts.fragment_capacity = fragments ? 24 : 0;
  if (!admission) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

/// Same shape as the reconciliation suite's churn: grow the id range,
/// aim edge ops at recent ids, trickle deletions of old ids.
void ApplyChurnChanges(GraphDataset& ds, const std::vector<Graph>& corpus,
                       std::size_t step) {
  ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
  std::size_t mutated = 0;
  for (std::size_t i = live.size(); i-- > 0 && mutated < 3;) {
    const GraphId id = live[i];
    const Graph& g = ds.graph(id);
    if (g.NumVertices() >= 2 && g.HasEdge(0, 1)) {
      ASSERT_TRUE(ds.RemoveEdge(id, 0, 1).ok());
      if ((step + mutated) % 2 == 0) {
        ASSERT_TRUE(ds.AddEdge(id, 0, 1).ok());
      }
      ++mutated;
    }
  }
  if (step % 3 == 0) {
    const GraphId victim = live[(13 * step + 7) % (live.size() / 2 + 1)];
    ASSERT_TRUE(ds.DeleteGraph(victim).ok());
  }
}

std::string BitsetString(const DynamicBitset& bits) {
  std::string s(bits.size(), '0');
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits.Test(i)) s[i] = '1';
  }
  return s;
}

/// Sorted (digest, kind, CGvalid, answer) tuples over every resident
/// whole-query entry. The fragment stores are deliberately NOT part of
/// this digest: equality means the fragment tier left the whole-query
/// cache — contents, validity knowledge and replacement decisions —
/// untouched.
std::vector<std::string> ResidentState(const GraphCachePlus& gc) {
  std::vector<std::string> out;
  gc.cache_shards().ForEachEntry([&out](const CachedQuery& e) {
    out.push_back(std::to_string(e.digest) + "|" +
                  (e.kind == CachedQueryKind::kSubgraph ? "sub" : "super") +
                  "|" + BitsetString(e.valid) + "|" + BitsetString(e.answer));
  });
  std::sort(out.begin(), out.end());
  return out;
}

void RunFragmentReplay(CacheModel model, bool epoch, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(2468);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/707,
                                         /*zipf_alpha=*/1.2);

  EngineUnderTest on =
      MakeEngine(corpus, model, epoch, shards, /*fragments=*/true,
                 /*admission=*/true);
  EngineUnderTest off =
      MakeEngine(corpus, model, epoch, shards, /*fragments=*/false,
                 /*admission=*/true);
  EngineUnderTest method_m =
      MakeEngine(corpus, model, epoch, shards, /*fragments=*/false,
                 /*admission=*/false);

  AggregateMetrics on_agg;
  AggregateMetrics off_agg;
  // Sum over queries of fragment_computed × |CS_M|: what checking every
  // computed star against all of CS_M would cost.
  std::uint64_t full_pass_checks = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    if (step % 7 == 5) {
      for (EngineUnderTest* e : {&on, &off, &method_m}) {
        e->gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
          ApplyChurnChanges(d, corpus, step);
        });
      }
      continue;
    }
    const QueryKind kind =
        step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph;
    const Graph& q = w.queries[step].query;
    const std::vector<GraphId> truth = method_m.gc->Query(q, kind).answer;
    const QueryResult off_res = off.gc->Query(q, kind);
    EXPECT_EQ(off_res.answer, truth)
        << "fragment-free engine diverged from Method M at step " << step;
    const QueryResult on_res = on.gc->Query(q, kind);
    EXPECT_EQ(on_res.answer, truth)
        << "fragment pruning changed an answer at step " << step;
    off_agg.Add(off_res.metrics);
    on_agg.Add(on_res.metrics);
    full_pass_checks += std::uint64_t{on_res.metrics.fragment_computed} *
                        on_res.metrics.candidates_initial;
  }

  // Settle: the churn ends on a mutation batch, which the lock path
  // absorbs lazily at the next query; one more query puts every engine
  // at the same point in the sync cycle.
  const std::vector<GraphId> settle =
      off.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer;
  EXPECT_EQ(on.gc->Query(w.queries[0].query, QueryKind::kSubgraph).answer,
            settle);

  on.gc->FlushMaintenance();
  off.gc->FlushMaintenance();
  const StatisticsManager ons = on.gc->CacheStatsSnapshot();
  const StatisticsManager offs = off.gc->CacheStatsSnapshot();

  // Identical whole-query residents with identical CGvalid/answer bits...
  EXPECT_EQ(ResidentState(*on.gc), ResidentState(*off.gc));
  // ...reached through identical admission/replacement/hit decisions.
  EXPECT_GT(offs.total_admissions, 0u);
  EXPECT_EQ(ons.total_admissions, offs.total_admissions);
  EXPECT_EQ(ons.total_evictions, offs.total_evictions);
  EXPECT_EQ(ons.total_admission_dedups, offs.total_admission_dedups);
  EXPECT_EQ(ons.total_exact_hits, offs.total_exact_hits);
  EXPECT_EQ(ons.total_sub_hits, offs.total_sub_hits);
  EXPECT_EQ(ons.total_super_hits, offs.total_super_hits);
  EXPECT_EQ(ons.reconcile_entries_touched, offs.reconcile_entries_touched);
  EXPECT_EQ(ons.reconcile_entries_skipped, offs.reconcile_entries_skipped);

  // The tier actually engaged on the fragments side...
  EXPECT_GT(ons.fragment_admissions, 0u);
  EXPECT_GT(on_agg.fragment_computed, 0u);
  EXPECT_GT(on_agg.fragment_intersections, 0u);
  EXPECT_GT(on_agg.fragment_candidates_pruned, 0u);
  EXPECT_GT(ons.approx_fragment_bytes, 0u);
  // ...stars are checked only on surviving candidates...
  EXPECT_GT(on_agg.fragment_star_checks, 0u);
  EXPECT_LT(on_agg.fragment_star_checks, full_pass_checks);
  // ...pruning never inflates verification work...
  EXPECT_LE(on_agg.si_tests, off_agg.si_tests);
  // ...and reconciliation reached the fragment store (CON refreshes it,
  // EVI purges it — either way fragments count as touched).
  EXPECT_GT(ons.fragment_reconcile_touched + ons.fragment_reconcile_skipped,
            0u);
  // ...while the fragment-free side reports zero fragment activity.
  EXPECT_EQ(offs.fragment_admissions, 0u);
  EXPECT_EQ(offs.fragment_hits, 0u);
  EXPECT_EQ(offs.fragment_candidates_pruned, 0u);
  EXPECT_EQ(offs.approx_fragment_bytes, 0u);
  EXPECT_EQ(off_agg.fragment_star_checks, 0u);
}

const CachedQuery* FindFragment(const std::vector<CachedQuery>& fragments,
                                std::uint64_t digest) {
  for (const CachedQuery& e : fragments) {
    if (e.digest == digest) return &e;
  }
  return nullptr;
}

TEST(FragmentEquivalenceTest, PartiallyValidResidentIsToppedUp) {
  // q1 = path 1-0-2, the star 0{1,2}. Its stars are checked most
  // selective first, so the edge star 0-1 is checked only on the graphs
  // 0{1,2} kept: it becomes resident valid on just that part of CS_M.
  // q2 = path 0-1-2 (no whole-query relation to q1) checks its star
  // 1{0,2} on all of CS_M first; the edge star is then topped up on only
  // the survivors outside its valid set, and the drain merges both
  // checked sets.
  const std::vector<Graph> corpus = ChurnCorpus(2468);
  // FTV off: CS_M is every live graph, so the expected sets below are
  // plain star-containment splits of the corpus.
  EngineUnderTest on = MakeEngine(corpus, CacheModel::kCon, /*epoch=*/false,
                                  /*shards=*/1, /*fragments=*/true,
                                  /*admission=*/true, /*ftv=*/false);
  EngineUnderTest method_m =
      MakeEngine(corpus, CacheModel::kCon, /*epoch=*/false, /*shards=*/1,
                 /*fragments=*/false, /*admission=*/false, /*ftv=*/false);
  const Graph q1 = MakeStarGraph(0, {1, 2});
  const Graph q2 = MakeStarGraph(1, {0, 2});
  const Fragment edge = MakeFragment(0, {1});

  const DynamicBitset csm = on.ds->LiveMask();
  auto holders = [&](const Fragment& f) {
    DynamicBitset out(csm.size());
    for (const GraphId id : on.ds->LiveIds()) {
      out.Set(id, StarEmbeds(f, on.ds->graph(id)));
    }
    return out;
  };
  const DynamicBitset full = holders(MakeFragment(0, {1, 2}));
  const DynamicBitset center1 = holders(MakeFragment(1, {0, 2}));
  // The scenario discriminates only if q1's star splits CS_M and the
  // graphs q2's star keeps straddle the covered and the uncovered part.
  ASSERT_TRUE(full.Any());
  ASSERT_LT(full.Count(), csm.Count());
  ASSERT_TRUE(full.Intersects(center1));
  ASSERT_TRUE(DynamicBitset::AndNot(center1, full).Any());

  const QueryResult r1 = on.gc->Query(q1, QueryKind::kSubgraph);
  EXPECT_EQ(r1.answer, method_m.gc->Query(q1, QueryKind::kSubgraph).answer);
  on.gc->FlushMaintenance();
  const std::vector<CachedQuery> after_q1 =
      on.gc->cache_shards().ExportFragments();
  const CachedQuery* partial = FindFragment(after_q1, edge.digest);
  ASSERT_NE(partial, nullptr);
  EXPECT_EQ(partial->valid, full);
  EXPECT_EQ(DynamicBitset::And(partial->answer, partial->valid), full);

  const QueryResult r2 = on.gc->Query(q2, QueryKind::kSubgraph);
  EXPECT_EQ(r2.answer, method_m.gc->Query(q2, QueryKind::kSubgraph).answer);
  EXPECT_EQ(r2.metrics.sub_hits + r2.metrics.super_hits, 0u);
  EXPECT_EQ(r2.metrics.fragment_hits, 1u);
  EXPECT_EQ(r2.metrics.fragment_computed, 3u);
  // 1{0,2} on all of CS_M; the edge only on its survivors outside the
  // resident's valid set; 1{2} on the survivors (every graph holding
  // 1{0,2} holds both edges, so only the first star prunes).
  const DynamicBitset topped_up = DynamicBitset::AndNot(center1, full);
  EXPECT_EQ(r2.metrics.fragment_star_checks,
            csm.Count() + topped_up.Count() + center1.Count());
  EXPECT_EQ(r2.metrics.fragment_candidates_pruned,
            csm.Count() - center1.Count());

  on.gc->FlushMaintenance();
  const std::vector<CachedQuery> after_q2 =
      on.gc->cache_shards().ExportFragments();
  const CachedQuery* merged = FindFragment(after_q2, edge.digest);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->valid, DynamicBitset::Or(full, topped_up));
  EXPECT_EQ(DynamicBitset::And(merged->answer, merged->valid),
            merged->valid);
}

TEST(FragmentEquivalenceTest, ConLockSingleShard) {
  RunFragmentReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, ConLockEightShards) {
  RunFragmentReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/8);
}

TEST(FragmentEquivalenceTest, ConEpochSingleShard) {
  RunFragmentReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, ConEpochEightShards) {
  RunFragmentReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/8);
}

TEST(FragmentEquivalenceTest, EviLockSingleShard) {
  RunFragmentReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, EviLockEightShards) {
  RunFragmentReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/8);
}

TEST(FragmentEquivalenceTest, EviEpochSingleShard) {
  RunFragmentReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/1);
}

TEST(FragmentEquivalenceTest, EviEpochEightShards) {
  RunFragmentReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/8);
}

}  // namespace
}  // namespace gcp
