#include "match/fragments.hpp"

#include <algorithm>
#include <utility>

#include "graph/canonical.hpp"

namespace gcp {

Graph MakeStarGraph(Label center, std::vector<Label> leaves) {
  // A single-edge star is the one shape where the center is not
  // structurally distinguished: (a)-(b) read from either endpoint is the
  // same unrooted pattern. Normalize to center = min label so both
  // readings canonicalize to the same graph (and fragment key).
  if (leaves.size() == 1 && leaves[0] < center) {
    std::swap(center, leaves[0]);
  }
  std::sort(leaves.begin(), leaves.end());
  std::vector<Label> labels;
  labels.reserve(leaves.size() + 1);
  labels.push_back(center);
  labels.insert(labels.end(), leaves.begin(), leaves.end());
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    edges.emplace_back(0, static_cast<VertexId>(i + 1));
  }
  Result<Graph> g = Graph::Create(std::move(labels), edges);
  // A star over valid inputs cannot fail construction (no self-loops, no
  // duplicate edges by shape).
  return std::move(g).value();
}

std::vector<Fragment> DecomposeToFragments(const Graph& g,
                                           std::size_t max_fragments) {
  // Candidate key per vertex: (center label, sorted leaf labels).
  using Key = std::pair<Label, std::vector<Label>>;
  std::vector<Key> keys;
  keys.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.degree(v) == 0) continue;
    std::vector<Label> leaves;
    leaves.reserve(g.degree(v));
    for (const VertexId u : g.neighbors(v)) leaves.push_back(g.label(u));
    std::sort(leaves.begin(), leaves.end());
    Label center = g.label(v);
    // Mirror MakeStarGraph's single-edge normalization in the key itself,
    // so the two endpoint readings of one edge dedup to one fragment.
    if (leaves.size() == 1 && leaves[0] < center) {
      std::swap(center, leaves[0]);
    }
    keys.emplace_back(center, std::move(leaves));
  }
  // Most selective first; the tie chain makes the cap's selection (and the
  // resulting fragment list) invariant under input permutation.
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.second.size() != b.second.size()) {
      return a.second.size() > b.second.size();
    }
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (keys.size() > max_fragments) keys.resize(max_fragments);

  std::vector<Fragment> out;
  out.reserve(keys.size());
  for (Key& key : keys) {
    out.push_back(MakeFragment(key.first, std::move(key.second)));
  }
  return out;
}

Fragment MakeFragment(Label center, std::vector<Label> leaves) {
  Fragment f;
  f.star = MakeStarGraph(center, std::move(leaves));
  f.digest = WlDigest(f.star);
  for (VertexId v = 1; v < f.star.NumVertices(); ++v) {
    const Label l = f.star.label(v);  // ascending: leaves are sorted
    if (f.leaves.empty() || f.leaves.back().first != l) {
      f.leaves.emplace_back(l, 0);
    }
    ++f.leaves.back().second;
  }
  return f;
}

bool StarEmbeds(const Fragment& f, const Graph& g) {
  const std::size_t num_leaves = f.star.NumVertices() - 1;
  const std::uint64_t center_sig = f.star.vertex_signature(0);
  for (const VertexId v : g.VerticesWithLabel(f.star.label(0))) {
    // Degree and signature dominance are necessary conditions that
    // reject most centers before any label run is searched.
    if (g.degree(v) < num_leaves ||
        !SignatureDominates(center_sig, g.vertex_signature(v))) {
      continue;
    }
    const bool fits = std::all_of(
        f.leaves.begin(), f.leaves.end(), [&](const auto& run) {
          return g.NeighborsWithLabel(v, run.first).size() >= run.second;
        });
    if (fits) return true;
  }
  return false;
}

}  // namespace gcp
