// Sub-pattern fragment decomposition — the pattern side of the fragment
// cache (after eBay's one-hop sub-query result caches).
//
// A *fragment* is a canonical one-hop star sub-pattern of a query: one
// center vertex plus the sorted multiset of its neighbours' labels.
// Because our graphs are vertex-labelled only (no edge labels), the pair
// (center label, sorted leaf-label multiset) — with single-edge stars
// normalized to center = min endpoint label, the one shape whose center
// is not structurally distinguished — is a *complete* isomorphism
// invariant for stars: two stars are isomorphic iff their keys are equal,
// and the canonical star graph built from a key (vertex 0 = center,
// vertices 1..k = leaves in sorted label order, edges (0, i)) is
// bit-identical across all isomorphic inputs. Fragment identity in the
// cache is the WL digest of that canonical graph — the same digest
// whole queries use — with a canonical-graph equality check behind it so
// a true digest collision can never alias two distinct fragments.
//
// Soundness of fragment pruning: the matcher semantics are non-induced,
// label-preserving and injective, so the star of any query vertex embeds
// into the query itself; containment is transitive, hence every dataset
// graph containing the query contains every one of its fragments. A
// fragment's valid-negative set (valid ∧ ¬answer) is therefore a sound
// exclusion set for any query the fragment decomposes from.
//
// Checking a star needs no search. Under those semantics a star with
// center label c and leaf multiset L embeds in an undirected
// vertex-labelled G iff some vertex v of label c has, for every leaf
// label l, at least mult_L(l) neighbours labelled l: leaves of different
// labels compete for disjoint neighbour sets, and leaves of one label
// for interchangeable ones, so counting is exact (StarEmbeds).

#ifndef GCP_MATCH_FRAGMENTS_HPP_
#define GCP_MATCH_FRAGMENTS_HPP_

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace gcp {

/// One canonical one-hop sub-pattern of a query.
struct Fragment {
  Graph star;                 ///< Canonical star graph (center = vertex 0).
  std::uint64_t digest = 0;   ///< WlDigest(star) — the cache key.
  LabelHistogram leaves;      ///< Leaf multiset as sorted (label, count).
};

/// Builds the canonical star graph for (center, leaves): vertex 0 carries
/// `center`, vertices 1..k the leaf labels in ascending order, and every
/// leaf connects to the center. Single-edge stars normalize the center to
/// the smaller endpoint label. Isomorphic stars produce equal graphs.
Graph MakeStarGraph(Label center, std::vector<Label> leaves);

/// The fragment of the star (center, leaves): its canonical graph, digest
/// and run-length leaf multiset. `leaves` must be non-empty.
Fragment MakeFragment(Label center, std::vector<Label> leaves);

/// True iff `f.star` embeds in `g` (non-induced, label-preserving,
/// injective) — decided by neighbour-label counts, no search.
bool StarEmbeds(const Fragment& f, const Graph& g);

/// Decomposes `g` into its distinct one-hop fragments: one candidate star
/// per vertex of degree >= 1, deduplicated by canonical key, ordered most
/// selective first (descending leaf count, then center label, then leaf
/// labels) and capped at `max_fragments`. The order — and therefore the
/// cap's selection — is invariant under vertex/edge input permutation.
/// An edgeless graph has no fragments.
std::vector<Fragment> DecomposeToFragments(const Graph& g,
                                           std::size_t max_fragments);

}  // namespace gcp

#endif  // GCP_MATCH_FRAGMENTS_HPP_
