// Fragment canonicalization — the identity the fragment cache hangs off.
//
// The store keys fragments by WlDigest(canonical star) with a graph
// equality check behind the lookup, so correctness needs exactly two
// properties: (a) isomorphic stars canonicalize to bit-identical graphs
// (digest stability — a hit is found no matter how the query was laid
// out), and (b) non-isomorphic small stars never share both digest and
// canonical graph (collision sanity — checked exhaustively against a
// brute-force isomorphism oracle on the small-star universe).
//
// StarEmbeds, the search-free star check the engine runs on a fragment
// miss, is held to VF2 containment exhaustively: every star up to 4
// leaves over a 3-label alphabet, against every labelled graph up to 5
// vertices (up to isomorphism), both freshly built and edited in place,
// once with labels in distinct vertex-signature buckets and once with all
// labels sharing one.

#include "match/fragments.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <random>
#include <vector>

#include "../test_util.hpp"
#include "graph/canonical.hpp"
#include "match/matcher.hpp"

namespace gcp {
namespace {

using gcp::testing::MakeGraph;
using gcp::testing::MakePath;
using gcp::testing::MakeStar;

bool SameGraph(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    if (a.label(v) != b.label(v)) return false;
  }
  return a.Edges() == b.Edges();
}

/// Relabels g's vertices through `perm` (vertex v becomes perm[v]) and
/// shuffles the edge list — an isomorphic copy with a different layout.
Graph Permuted(const Graph& g, const std::vector<VertexId>& perm,
               std::mt19937_64& rng) {
  std::vector<Label> labels(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    labels[perm[v]] = g.label(v);
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (const auto& [u, v] : g.Edges()) {
    edges.emplace_back(perm[u], perm[v]);
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  auto r = Graph::Create(std::move(labels), edges);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(FragmentCanonicalTest, StarGraphIdenticalAcrossLeafOrderings) {
  const Graph a = MakeStarGraph(5, {3, 1, 2, 1});
  const Graph b = MakeStarGraph(5, {1, 2, 1, 3});
  const Graph c = MakeStarGraph(5, {1, 1, 2, 3});
  EXPECT_TRUE(SameGraph(a, b));
  EXPECT_TRUE(SameGraph(a, c));
  EXPECT_EQ(WlDigest(a), WlDigest(b));
  EXPECT_EQ(a.label(0), 5u);  // center is always vertex 0
}

TEST(FragmentCanonicalTest, DigestsStableUnderVertexPermutation) {
  std::mt19937_64 rng(7);
  const Graph graphs[] = {
      MakePath({1, 2, 3, 4, 5}),
      MakeStar({9, 1, 1, 2, 3}),
      MakeGraph({0, 1, 2, 0, 1},
                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}),
  };
  for (const Graph& g : graphs) {
    const std::vector<Fragment> base = DecomposeToFragments(g, 8);
    ASSERT_FALSE(base.empty());
    std::vector<VertexId> perm(g.NumVertices());
    std::iota(perm.begin(), perm.end(), 0);
    for (int trial = 0; trial < 20; ++trial) {
      std::shuffle(perm.begin(), perm.end(), rng);
      const Graph p = Permuted(g, perm, rng);
      const std::vector<Fragment> got = DecomposeToFragments(p, 8);
      ASSERT_EQ(base.size(), got.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        // Same digests in the same order: the cap's selection and the
        // cache keys cannot depend on input layout.
        EXPECT_EQ(base[i].digest, got[i].digest);
        EXPECT_TRUE(SameGraph(base[i].star, got[i].star));
      }
    }
  }
}

TEST(FragmentCanonicalTest, ExhaustiveSmallStarsMatchIsomorphismOracle) {
  // Universe: every star with center label in {0,1,2} and 1..3 leaves
  // drawn (with repetition, order-free) from {0,1,2}. Two stars are
  // isomorphic iff their (center, leaf multiset) keys are equal — that is
  // the complete-invariant claim the cache relies on. Cross-check the
  // canonical layer against it, and against an independent matcher-based
  // oracle (mutual containment of equal-size graphs = isomorphism).
  struct Star {
    Label center;
    std::vector<Label> leaves;  // sorted
    Graph canonical;
    std::uint64_t digest;
  };
  std::vector<Star> universe;
  const std::vector<std::vector<Label>> multisets = {
      {0},       {1},       {2},       {0, 0},    {0, 1},    {0, 2},
      {1, 1},    {1, 2},    {2, 2},    {0, 0, 0}, {0, 0, 1}, {0, 0, 2},
      {0, 1, 1}, {0, 1, 2}, {0, 2, 2}, {1, 1, 1}, {1, 1, 2}, {1, 2, 2},
      {2, 2, 2}};
  for (Label center = 0; center < 3; ++center) {
    for (const auto& leaves : multisets) {
      Star s;
      s.center = center;
      s.leaves = leaves;
      // The key invariant holds after the single-edge normalization the
      // canonical layer applies (an unrooted edge has no distinguished
      // center): fold (a, {b}) with b < a onto (b, {a}).
      if (s.leaves.size() == 1 && s.leaves[0] < s.center) {
        std::swap(s.center, s.leaves[0]);
      }
      s.canonical = MakeStarGraph(center, leaves);  // pre-normalized input
      s.digest = WlDigest(s.canonical);
      universe.push_back(std::move(s));
    }
  }
  const auto matcher = MakeMatcher(MatcherKind::kVf2);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    for (std::size_t j = 0; j < universe.size(); ++j) {
      const Star& a = universe[i];
      const Star& b = universe[j];
      const bool iso_by_key = a.center == b.center && a.leaves == b.leaves;
      const bool iso_by_matcher =
          a.canonical.NumVertices() == b.canonical.NumVertices() &&
          matcher->Contains(a.canonical, b.canonical) &&
          matcher->Contains(b.canonical, a.canonical);
      ASSERT_EQ(iso_by_key, iso_by_matcher)
          << "key invariant disagrees with the matcher oracle";
      if (iso_by_key) {
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_TRUE(SameGraph(a.canonical, b.canonical));
      } else {
        // Distinct fragments must be distinguishable by the store's
        // lookup: digest differs, or (a true WL collision) the canonical
        // graphs differ and the equality check rejects the alias.
        EXPECT_TRUE(a.digest != b.digest ||
                    !SameGraph(a.canonical, b.canonical));
      }
    }
  }
}

TEST(FragmentCanonicalTest, DecompositionDedupsOrdersAndCaps) {
  // Path 1-2-1: both endpoints yield the same star (center 1, leaf {2}),
  // the middle yields (center 2, leaves {1,1}).
  const std::vector<Fragment> frags =
      DecomposeToFragments(MakePath({1, 2, 1}), 8);
  ASSERT_EQ(frags.size(), 2u);
  // Largest star first (2 leaves before 1).
  EXPECT_EQ(frags[0].star.NumVertices(), 3u);
  EXPECT_EQ(frags[1].star.NumVertices(), 2u);
  EXPECT_EQ(frags[0].star.label(0), 2u);
  EXPECT_EQ(frags[1].star.label(0), 1u);

  // The cap keeps the most selective (largest) stars.
  const Graph g = MakeGraph({0, 1, 2, 3, 4},
                            {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  const std::vector<Fragment> all = DecomposeToFragments(g, 8);
  const std::vector<Fragment> capped = DecomposeToFragments(g, 2);
  ASSERT_GT(all.size(), 2u);
  ASSERT_EQ(capped.size(), 2u);
  for (std::size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].digest, all[i].digest);
  }
  EXPECT_EQ(capped[0].star.NumVertices(), 5u);  // the degree-4 center
}

TEST(FragmentCanonicalTest, EdgelessAndIsolatedVertices) {
  Graph g;
  g.AddVertex(1);
  g.AddVertex(2);
  EXPECT_TRUE(DecomposeToFragments(g, 8).empty());
  EXPECT_TRUE(DecomposeToFragments(Graph(), 8).empty());
  // Isolated vertices contribute no fragment; the one edge contributes
  // exactly one (its two endpoint readings normalize to the same star).
  g.AddVertex(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(DecomposeToFragments(g, 8).size(), 1u);
}

TEST(FragmentCanonicalTest, SingleEdgeStarsNormalizeAcrossEndpoints) {
  const Graph a = MakeStarGraph(0, {1});
  const Graph b = MakeStarGraph(1, {0});
  EXPECT_TRUE(SameGraph(a, b));
  EXPECT_EQ(WlDigest(a), WlDigest(b));
  EXPECT_EQ(a.label(0), 0u);
}

TEST(FragmentCanonicalTest, EveryFragmentEmbedsInItsQuery) {
  // The soundness precondition of fragment pruning: star ⊆ query for
  // every decomposed fragment, under the engine's non-induced injective
  // matcher semantics.
  const auto matcher = MakeMatcher(MatcherKind::kVf2);
  const Graph graphs[] = {
      MakePath({1, 2, 3, 2, 1}),
      MakeStar({5, 1, 2, 3, 4}),
      gcp::testing::MakeClique(4, 7),
      MakeGraph({0, 1, 2, 0, 1},
                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}}),
  };
  for (const Graph& g : graphs) {
    for (const Fragment& f : DecomposeToFragments(g, 16)) {
      EXPECT_TRUE(matcher->Contains(f.star, g));
    }
  }
}

/// A 3-label alphabet. {0,1,2} puts every label in its own bucket of the
/// vertex signature, so the signature prefilter alone decides; {0,16,32}
/// puts all three in one bucket, so the neighbour-run counts decide.
using Alphabet = std::array<Label, 3>;
constexpr Alphabet kSplitBuckets = {0, 1, 2};
constexpr Alphabet kSharedBucket = {0, 16, 32};

/// Every star with its center and 1..4 leaves drawn (leaves with
/// repetition, order-free) from `alpha`.
std::vector<Fragment> SmallStarUniverse(const Alphabet& alpha) {
  std::vector<Fragment> out;
  std::vector<Label> leaves;
  // Non-decreasing leaf sequences enumerate each multiset once.
  auto extend = [&](auto&& self, std::size_t min_index) -> void {
    if (!leaves.empty()) {
      for (const Label center : alpha) {
        out.push_back(MakeFragment(center, leaves));
      }
    }
    if (leaves.size() == 4) return;
    for (std::size_t i = min_index; i < alpha.size(); ++i) {
      leaves.push_back(alpha[i]);
      self(self, i);
      leaves.pop_back();
    }
  };
  extend(extend, 0);
  return out;
}

/// Every labelling of n vertices over `alpha` up to vertex permutation:
/// the non-decreasing label sequences, scattered over the ids through a
/// fixed permutation so label order and id order disagree (the label-
/// sorted CSR runs then differ from the id-sorted ones).
std::vector<std::vector<Label>> SmallLabellings(std::size_t n,
                                                const Alphabet& alpha) {
  static constexpr VertexId kScatter[] = {2, 0, 4, 1, 3};
  std::vector<VertexId> slots;
  for (const VertexId v : kScatter) {
    if (v < n) slots.push_back(v);
  }
  std::vector<std::vector<Label>> out;
  std::vector<Label> sorted;
  auto extend = [&](auto&& self, std::size_t min_index) -> void {
    if (sorted.size() == n) {
      std::vector<Label> labels(n);
      for (std::size_t i = 0; i < n; ++i) labels[slots[i]] = sorted[i];
      out.push_back(std::move(labels));
      return;
    }
    for (std::size_t i = min_index; i < alpha.size(); ++i) {
      sorted.push_back(alpha[i]);
      self(self, i);
      sorted.pop_back();
    }
  };
  extend(extend, 0);
  return out;
}

std::vector<std::pair<VertexId, VertexId>> AllPairs(std::size_t n) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

/// Asserts StarEmbeds agrees with VF2 containment for every star on `g`;
/// `oracle_target` is the graph VF2 runs on (a fresh build of g's edges
/// when g was edited in place, so the oracle shares no derived state).
void ExpectStarsAgree(const std::vector<Fragment>& stars, const Graph& g,
                      const Graph& oracle_target,
                      const SubgraphMatcher& oracle) {
  for (const Fragment& f : stars) {
    ASSERT_EQ(StarEmbeds(f, g), oracle.Contains(f.star, oracle_target))
        << "star " << f.star.ToString() << " target " << g.ToString();
  }
}

/// StarEmbeds vs VF2 for every star over `alpha` on every labelled graph
/// of 1..5 vertices over `alpha`, up to isomorphism, each freshly built.
void CheckEverySmallTarget(const Alphabet& alpha) {
  const std::vector<Fragment> stars = SmallStarUniverse(alpha);
  ASSERT_EQ(stars.size(), 3u * (3 + 6 + 10 + 15));
  const auto oracle = MakeMatcher(MatcherKind::kVf2);
  std::size_t targets = 0;
  for (std::size_t n = 1; n <= 5; ++n) {
    const auto pairs = AllPairs(n);
    for (const std::vector<Label>& labels : SmallLabellings(n, alpha)) {
      for (std::uint32_t mask = 0; mask < (1u << pairs.size()); ++mask) {
        std::vector<std::pair<VertexId, VertexId>> edges;
        for (std::size_t e = 0; e < pairs.size(); ++e) {
          if ((mask >> e) & 1u) edges.push_back(pairs[e]);
        }
        const Graph g = Graph::Create(labels, edges).value();
        ExpectStarsAgree(stars, g, g, *oracle);
        if (::testing::Test::HasFatalFailure()) return;
        ++targets;
      }
    }
  }
  // 3 + 6*2 + 10*8 + 15*64 + 21*1024 labelled graphs.
  EXPECT_EQ(targets, 22559u);
}

/// The same check on targets reached only by in-place edits: a Gray-code
/// walk over every edge set of 5 vertices flips one edge per step with
/// AddEdge/RemoveEdge, so the label-sorted CSR runs StarEmbeds reads are
/// always the mutated ones, never a fresh build.
void CheckInPlaceEdits(const Alphabet& alpha) {
  const std::vector<Fragment> stars = SmallStarUniverse(alpha);
  const auto oracle = MakeMatcher(MatcherKind::kVf2);
  const auto pairs = AllPairs(5);
  for (const std::vector<Label>& labels : SmallLabellings(5, alpha)) {
    Graph g = Graph::Create(labels, {}).value();
    for (std::uint32_t step = 1; step < (1u << pairs.size()); ++step) {
      const auto [u, v] = pairs[std::countr_zero(step)];
      if (g.HasEdge(u, v)) {
        ASSERT_TRUE(g.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(g.AddEdge(u, v).ok());
      }
      const Graph fresh = Graph::Create(labels, g.Edges()).value();
      ExpectStarsAgree(stars, g, fresh, *oracle);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(FragmentCanonicalTest, MakeFragmentRunLengthLeaves) {
  const Fragment f = MakeFragment(5, {3, 1, 2, 1});
  EXPECT_EQ(f.star.label(0), 5u);
  EXPECT_EQ(f.leaves, (LabelHistogram{{1, 2}, {2, 1}, {3, 1}}));
  EXPECT_EQ(f.digest, WlDigest(MakeStarGraph(5, {1, 1, 2, 3})));
  // Single-edge normalization carries over to the center and leaves.
  const Fragment edge = MakeFragment(4, {1});
  EXPECT_EQ(edge.star.label(0), 1u);
  EXPECT_EQ(edge.leaves, (LabelHistogram{{4, 1}}));
}

TEST(FragmentCanonicalTest, StarEmbedsMatchesVf2OnEverySmallTarget) {
  for (const Alphabet& alpha : {kSplitBuckets, kSharedBucket}) {
    SCOPED_TRACE(alpha[1]);
    CheckEverySmallTarget(alpha);
    if (HasFatalFailure()) return;
  }
}

TEST(FragmentCanonicalTest, StarEmbedsMatchesVf2AfterInPlaceEdits) {
  for (const Alphabet& alpha : {kSplitBuckets, kSharedBucket}) {
    SCOPED_TRACE(alpha[1]);
    CheckInPlaceEdits(alpha);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace gcp
