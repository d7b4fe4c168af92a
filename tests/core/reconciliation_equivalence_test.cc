// Reconciliation equivalence gates for the change-relevance index, which
// every CON/EVI reconcile goes through:
//
// 1. ReconciliationEquivalenceTest — over a 300-step churn of interleaved
//    queries and dataset changes, across {CON, EVI} × {lock, epoch} ×
//    shards {1, 8}, every answer must equal an uncached Method M engine
//    replaying the same churn; every reconcile event must split the
//    resident population exactly (touched + skipped == resident, for
//    whole-query entries and fragments alike); and the localized churn
//    must make the screen skip entries under CON. The screen's bit-exact
//    equality with brute-force Algorithm 2 (CacheManager::ValidateAll) is
//    gated at store level in relevance_index_test.
//
// 2. DeltaRevalidationEquivalenceTest — the same three checks with delta
//    re-validation ON, plus proof that the delta hook actually ran.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "workload/type_a.hpp"

namespace gcp {
namespace {

std::vector<Graph> ChurnCorpus(std::uint64_t seed) {
  AidsLikeOptions opts;
  opts.num_graphs = 120;  // several 64-id footprint blocks
  opts.mean_vertices = 9.0;
  opts.stddev_vertices = 3.0;
  opts.min_vertices = 4;
  opts.max_vertices = 14;
  opts.num_labels = 8;
  opts.seed = seed;
  return AidsLikeGenerator(opts).Generate();
}

struct EngineConfig {
  std::string label;
  bool delta = false;
  bool epoch = false;
  std::size_t shards = 1;
  std::size_t retro_budget = 0;
  bool admission = true;  // false = uncached Method M passthrough
};

struct EngineUnderTest {
  EngineConfig cfg;
  std::unique_ptr<GraphDataset> ds;
  std::unique_ptr<GraphCachePlus> gc;
};

EngineUnderTest MakeEngine(const std::vector<Graph>& corpus, CacheModel model,
                           const EngineConfig& cfg) {
  EngineUnderTest e;
  e.cfg = cfg;
  e.ds = std::make_unique<GraphDataset>();
  e.ds->Bootstrap(corpus);
  GraphCachePlusOptions opts;
  opts.model = model;
  opts.cache_capacity = 16;
  opts.window_capacity = 4;
  opts.num_shards = cfg.shards;
  opts.epoch_reads = cfg.epoch;
  opts.delta_revalidation = cfg.delta;
  opts.retrospective_budget = cfg.retro_budget;
  opts.use_ftv_index = true;  // the delta fallback's feature prescreen
  if (!cfg.admission) {
    opts.enable_admission = false;
    opts.enable_exact_shortcut = false;
    opts.enable_empty_answer_shortcut = false;
  }
  e.gc = std::make_unique<GraphCachePlus>(e.ds.get(), opts);
  return e;
}

/// Localized churn: every batch grows the id range (new graphs land in
/// the newest 64-id blocks) and aims its edge ops at recently added ids,
/// so each batch's footprint covers a shrinking fraction of the resident
/// entries' — the access pattern the relevance index exists for. A slow
/// trickle of deletions of old ids keeps structural ops in the mix.
void ApplyChurnChanges(GraphDataset& ds, const std::vector<Graph>& corpus,
                       std::size_t step) {
  ds.AddGraph(corpus[(5 * step + 2) % corpus.size()]);
  const std::vector<GraphId> live = ds.LiveIds();
  // Edge ops on the most recently added live graphs.
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

/// Per-event reconcile accounting: Arm() before a mutation batch records
/// the resident population the batch's reconcile will see (after a flush,
/// so no deferred admission lands in between); Check() once the batch is
/// reconciled — right after ApplyDatasetChanges on the epoch path, after
/// the next query's sync on the lock path — asserts that the event split
/// exactly that population into touched + skipped, for whole-query
/// entries and fragments alike.
class ReconcileEventProbe {
 public:
  void Arm(GraphCachePlus& gc) {
    gc.FlushMaintenance();
    const ShardedCache& shards = gc.cache_shards();
    entries_ = shards.resident();
    fragments_ = 0;
    for (std::size_t s = 0; s < shards.num_shards(); ++s) {
      fragments_ += shards.shard(s).fragments().size();
    }
    base_ = gc.CacheStatsSnapshot();
    armed_ = true;
  }

  void Check(const GraphCachePlus& gc, const std::string& label,
             std::size_t step) {
    if (!armed_) return;
    armed_ = false;
    const StatisticsManager now = gc.CacheStatsSnapshot();
    EXPECT_EQ(now.reconcile_entries_touched + now.reconcile_entries_skipped -
                  base_.reconcile_entries_touched -
                  base_.reconcile_entries_skipped,
              entries_)
        << label << ": reconcile event before step " << step;
    EXPECT_EQ(now.fragment_reconcile_touched + now.fragment_reconcile_skipped -
                  base_.fragment_reconcile_touched -
                  base_.fragment_reconcile_skipped,
              fragments_)
        << label << ": fragment reconcile event before step " << step;
    ++events_;
  }

  std::size_t events() const { return events_; }

 private:
  StatisticsManager base_;
  std::size_t entries_ = 0;
  std::size_t fragments_ = 0;
  std::size_t events_ = 0;
  bool armed_ = false;
};

/// Replays the churn on `cached` and an uncached Method M engine: every
/// seventh step (offset 5) is a mutation batch, every other step a query
/// whose answer must equal Method M's. Every reconcile event is checked
/// by a ReconcileEventProbe.
void ReplayAgainstMethodM(const std::vector<Graph>& corpus,
                          const Workload& w, EngineUnderTest& cached,
                          EngineUnderTest& method_m) {
  ReconcileEventProbe probe;
  auto mutate = [&corpus](EngineUnderTest& e, std::size_t step) {
    e.gc->ApplyDatasetChanges([&corpus, step](GraphDataset& d) {
      ApplyChurnChanges(d, corpus, step);
    });
  };
  auto query = [&](std::size_t step, const Graph& q, QueryKind kind) {
    EXPECT_EQ(cached.gc->Query(q, kind).answer,
              method_m.gc->Query(q, kind).answer)
        << cached.cfg.label << " diverged from uncached Method M at step "
        << step;
    probe.Check(*cached.gc, cached.cfg.label, step);
  };
  for (std::size_t step = 0; step < w.size(); ++step) {
    if (step % 7 == 5) {
      probe.Arm(*cached.gc);
      mutate(cached, step);
      mutate(method_m, step);
      continue;
    }
    query(step, w.queries[step].query,
          step % 2 == 0 ? QueryKind::kSubgraph : QueryKind::kSupergraph);
  }
  // Settle: the churn ends on a mutation batch, which the lock path
  // reconciles lazily at the next query.
  query(w.size(), w.queries[0].query, QueryKind::kSubgraph);
  EXPECT_EQ(probe.events(), (w.size() + 1) / 7) << cached.cfg.label;
}

void RunReconcileReplay(CacheModel model, bool epoch, std::size_t shards) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(4321);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  const std::size_t retro = model == CacheModel::kCon ? 4 : 0;
  EngineUnderTest indexed = MakeEngine(
      corpus, model,
      EngineConfig{"relevance-index", false, epoch, shards, retro});
  EngineUnderTest method_m = MakeEngine(
      corpus, model,
      EngineConfig{"uncached-method-m", false, epoch, shards, 0,
                   /*admission=*/false});
  ReplayAgainstMethodM(corpus, w, indexed, method_m);

  indexed.gc->FlushMaintenance();
  const StatisticsManager is = indexed.gc->CacheStatsSnapshot();
  EXPECT_GT(is.total_admissions, 0u);
  EXPECT_GT(is.reconcile_entries_touched, 0u);
  // No delta hook is configured.
  EXPECT_EQ(is.delta_revalidations, 0u);
  EXPECT_EQ(is.delta_fallback_full_checks, 0u);
  if (model == CacheModel::kCon) {
    // Localized churn against block-granular footprints must actually
    // skip entries — the point of the index.
    EXPECT_GT(is.reconcile_entries_skipped, 0u);
  } else {
    // EVI purges indiscriminately: everything is touched.
    EXPECT_EQ(is.reconcile_entries_skipped, 0u);
  }
}

TEST(ReconciliationEquivalenceTest, ConLockSingleShard) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, ConLockEightShards) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/false, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, ConEpochSingleShard) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, ConEpochEightShards) {
  RunReconcileReplay(CacheModel::kCon, /*epoch=*/true, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, EviLockSingleShard) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, EviLockEightShards) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/false, /*shards=*/8);
}

TEST(ReconciliationEquivalenceTest, EviEpochSingleShard) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/1);
}

TEST(ReconciliationEquivalenceTest, EviEpochEightShards) {
  RunReconcileReplay(CacheModel::kEvi, /*epoch=*/true, /*shards=*/8);
}

void RunDeltaReplay(bool epoch) {
  constexpr std::size_t kSteps = 300;
  const std::vector<Graph> corpus = ChurnCorpus(8765);
  const Workload w = GenerateTypeAByName(corpus, "ZU", kSteps, /*seed=*/909,
                                         /*zipf_alpha=*/1.2);

  // Delta re-validation keeps or rewrites bits fading would clear; the
  // answers must still be exactly uncached Method M's.
  EngineUnderTest delta_indexed = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"delta,relevance-index", true, epoch, 2});
  EngineUnderTest method_m = MakeEngine(
      corpus, CacheModel::kCon,
      EngineConfig{"uncached-method-m", false, epoch, 2, 0,
                   /*admission=*/false});
  ReplayAgainstMethodM(corpus, w, delta_indexed, method_m);

  delta_indexed.gc->FlushMaintenance();
  const StatisticsManager is = delta_indexed.gc->CacheStatsSnapshot();
  EXPECT_GT(is.delta_revalidations + is.delta_fallback_full_checks, 0u);
  EXPECT_GT(is.reconcile_entries_skipped, 0u);
}

TEST(DeltaRevalidationEquivalenceTest, LockPath) { RunDeltaReplay(false); }

TEST(DeltaRevalidationEquivalenceTest, EpochPath) { RunDeltaReplay(true); }

}  // namespace
}  // namespace gcp
