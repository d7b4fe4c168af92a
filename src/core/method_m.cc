#include "core/method_m.hpp"

#include <atomic>
#include <vector>

#include "core/engine_snapshot.hpp"

namespace gcp {

MethodM::MethodM(MatcherKind kind, const GraphDataset& dataset,
                 ThreadPool* pool)
    : kind_(kind), matcher_(MakeMatcher(kind)), dataset_(dataset),
      pool_(pool) {}

namespace {

/// Shared verification core: `graph_of(id)` supplies candidate graphs,
/// `hist` (nullable) the dataset-wide label histogram for the prepared
/// pattern's rarity order.
template <typename GraphOf>
DynamicBitset VerifyWith(const SubgraphMatcher& matcher, const Graph& query,
                         QueryKind kind, const DynamicBitset& candidates,
                         ThreadPool* pool, const LabelHistogram* hist,
                         std::uint64_t* tests_run, GraphOf&& graph_of) {
  DynamicBitset verified(candidates.size());
  const std::vector<std::size_t> ids = candidates.ToVector();

  // Subgraph queries verify one fixed pattern against every candidate:
  // prepare its reusable state once. Supergraph queries swap roles per
  // candidate — the pattern varies, so there is nothing to reuse.
  std::unique_ptr<PreparedPattern> prepared;
  if (kind == QueryKind::kSubgraph && !ids.empty()) {
    prepared = matcher.Prepare(query, hist);
  }

  auto test_one = [&](GraphId id) {
    const Graph& g = graph_of(id);
    // Subgraph query: pattern = query, target = dataset graph.
    // Supergraph query: roles swap (the dataset graph must embed in the
    // query).
    return kind == QueryKind::kSubgraph
               ? matcher.ContainsPrepared(*prepared, g)
               : matcher.Contains(g, query);
  };

  if (pool == nullptr || ids.size() < 2) {
    for (const std::size_t id : ids) {
      if (test_one(static_cast<GraphId>(id))) verified.Set(id);
    }
  } else {
    std::vector<char> pass(ids.size(), 0);
    pool->ParallelFor(ids.size(), [&](std::size_t i) {
      pass[i] = test_one(static_cast<GraphId>(ids[i])) ? 1 : 0;
    });
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (pass[i] != 0) verified.Set(ids[i]);
    }
  }
  if (tests_run != nullptr) *tests_run += ids.size();
  return verified;
}

}  // namespace

DynamicBitset MethodM::VerifyCandidates(const Graph& query, QueryKind kind,
                                        const DynamicBitset& candidates,
                                        std::uint64_t* tests_run) const {
  LabelHistogram global_hist;
  const LabelHistogram* hist = nullptr;
  if (kind == QueryKind::kSubgraph && candidates.Any()) {
    global_hist = dataset_.GlobalLabelHistogram();
    hist = &global_hist;
  }
  return VerifyWith(
      *matcher_, query, kind, candidates, pool_, hist, tests_run,
      [this](GraphId id) -> const Graph& { return dataset_.graph(id); });
}

DynamicBitset MethodM::VerifyCandidatesOn(const EngineSnapshot& snap,
                                          const Graph& query, QueryKind kind,
                                          const DynamicBitset& candidates,
                                          std::uint64_t* tests_run) const {
  return VerifyWith(
      *matcher_, query, kind, candidates, pool_,
      &snap.global_label_histogram, tests_run,
      [&snap](GraphId id) -> const Graph& { return snap.graph(id); });
}

}  // namespace gcp
