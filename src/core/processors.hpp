// GC+sub / GC+super processors: cache-hit discovery (paper §4, §6).
//
// For an incoming query g the processors discover, among resident cached
// queries of the same query kind:
//   * GC+sub hits:  cached g' with g ⊆ g'  — for a subgraph query these
//     are the "positive" hits whose valid answers transfer directly into
//     g's answer (formula (1)); for a supergraph query they are the
//     "pruning" hits of the inverse logic.
//   * GC+super hits: cached g'' with g'' ⊆ g — pruning hits for subgraph
//     queries (formula (5)), positive hits for supergraph queries.
// Discovery is filter-then-verify against the cache: the QueryIndex
// shortlists by monotone features, an exact matcher verifies, and only
// *useful* candidates (non-zero standalone benefit) are verified at all.
// The processors also recognize the §6.3 optimal cases: an isomorphic
// cached query (exact hit) and an empty-answer proof.
//
// Discovery is shard-local (PR 5): CollectShard runs the per-shard
// prescreen — candidate enumeration, kind filter, utility computation,
// zero-utility drop — under ONE shard's lock. Survivors COPY the
// answer/valid bitsets (the validator mutates those in place under the
// exclusive shard lock, so sharing them would race) but SHARE ownership
// of the immutable query graph — the shared_ptr grabbed under the shard
// lock keeps the graph alive even if the entry is evicted before
// verification runs, the same grace-period guarantee the EpochManager
// gives snapshot graphs. No resident-entry pointer ever escapes a shard
// lock. ResolveHits then merges the per-shard survivor lists, applies
// the single global utility ordering (ties on WL digest, then entry id —
// hit selection is shard-layout-independent), and runs containment
// verification and the §6.3 shortcuts with no lock held at all. The
// resulting DiscoveredHits own their data outright.

#ifndef GCP_CORE_PROCESSORS_HPP_
#define GCP_CORE_PROCESSORS_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache_manager.hpp"
#include "core/metrics.hpp"
#include "core/method_m.hpp"
#include "core/options.hpp"
#include "match/matcher.hpp"

namespace gcp {

/// One exploited cache hit: the slices of the resident entry the pruner
/// and the deferred-credit machinery need, copied out under the entry's
/// home-shard lock (safe to use after every lock is released).
struct DiscoveredHit {
  CacheEntryId id = 0;        ///< For deferred benefit credits.
  std::uint64_t digest = 0;   ///< Routes the credit to the home shard.
  DynamicBitset answer;
  DynamicBitset valid;
};

/// Result of cache-hit discovery for one query. Owns all data.
struct DiscoveredHits {
  /// Same-kind cached queries whose valid answers inject directly into the
  /// new query's answer set (g ⊆ g' for subgraph queries; g'' ⊆ g for
  /// supergraph queries).
  std::vector<DiscoveredHit> positive;

  /// Same-kind cached queries whose valid negative results eliminate
  /// candidates (formula (5) resp. its inverse).
  std::vector<DiscoveredHit> pruning;

  /// §6.3 case 1: resident query isomorphic to g with full validity over
  /// the live dataset; its answer is returned directly.
  std::optional<DiscoveredHit> exact;

  /// §6.3 case 2: a pruning-direction entry with (still fully valid) empty
  /// answer proving the new query's answer is empty.
  std::optional<DiscoveredHit> empty_proof;
};

/// \brief Implements both processors over the cache index.
class HitDiscovery {
 public:
  /// One prescreen survivor: the entry slices the resolve stage
  /// (verification + shortcuts) consumes lock-free — bitsets owned,
  /// query graph shared with the resident entry.
  struct Candidate {
    /// For containment verification after the merge. Shared ownership of
    /// the resident entry's immutable graph.
    std::shared_ptr<const Graph> query;
    DynamicBitset answer;
    DynamicBitset valid;
    CacheEntryId id = 0;
    std::uint64_t digest = 0;
    std::size_t utility = 0;
    bool positive_role = false;  ///< Positive pool vs pruning pool.
    bool maybe_exact = false;    ///< §6.3 case-1 precheck passed.
    bool empty_eligible = false; ///< §6.3 case-2 precondition holds.
  };

  /// `internal_matcher` verifies query-vs-cached-query containment; the
  /// options supply hit caps and shortcut switches. Both must outlive the
  /// discovery object.
  HitDiscovery(const SubgraphMatcher& internal_matcher,
               const GraphCachePlusOptions& options)
      : matcher_(internal_matcher), options_(options) {}

  /// Per-shard prescreen: enumerates `shard`'s index candidates for `g`
  /// in both directions, filters by kind, computes standalone utilities
  /// against `live`, drops zero-utility candidates that can serve no §6.3
  /// shortcut, and appends owned copies of the survivors to `out`. The
  /// caller holds this shard's lock (shared suffices) for exactly this
  /// call. `features` must be GraphFeatures::Extract(g). Adds candidate
  /// enumeration time to metrics->t_discover_ns.
  void CollectShard(const Graph& g, const GraphFeatures& features,
                    QueryKind kind, const CacheManager& shard,
                    const DynamicBitset& live,
                    std::vector<Candidate>* out,
                    QueryMetrics* metrics) const;

  /// Merge + verify stage, lock-free: globally orders the merged survivor
  /// pool by (utility desc, WL digest, entry id), verifies containment in
  /// that order under the hit caps, and recognizes the §6.3 shortcuts —
  /// so hit selection is independent of how entries are sharded, up to WL
  /// digest collisions between distinct resident queries. Consumes
  /// `candidates`.
  DiscoveredHits ResolveHits(const Graph& g, QueryKind kind,
                             std::vector<Candidate> candidates,
                             const DynamicBitset& live,
                             QueryMetrics* metrics) const;

  /// Convenience composition for callers that already hold every shard
  /// lock (tests, single-store uses): collect across `shards`, then
  /// resolve.
  DiscoveredHits Discover(const Graph& g, QueryKind kind,
                          std::span<const CacheManager* const> shards,
                          const DynamicBitset& live,
                          QueryMetrics* metrics) const;

  /// Single-store convenience overload.
  DiscoveredHits Discover(const Graph& g, QueryKind kind,
                          const CacheManager& cache, const DynamicBitset& live,
                          QueryMetrics* metrics) const {
    const CacheManager* one = &cache;
    return Discover(g, kind, std::span<const CacheManager* const>(&one, 1),
                    live, metrics);
  }

 private:
  const SubgraphMatcher& matcher_;
  const GraphCachePlusOptions& options_;
};

}  // namespace gcp

#endif  // GCP_CORE_PROCESSORS_HPP_
