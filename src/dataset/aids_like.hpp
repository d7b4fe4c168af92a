// Synthetic stand-in for the NCI DTP AIDS antiviral screen dataset.
//
// The paper evaluates on AIDS [19]: 40,000 molecule graphs averaging ≈45
// vertices (σ 22, max 245) and ≈47 edges (σ 23, max 250), with a skewed
// vertex-label (atom type) distribution. The original files are not
// redistributable, so this generator synthesizes molecule-like graphs
// matching the published shape statistics. The substitution preserves
// what GC+'s behaviour depends on: sub-iso cost per graph follows graph
// size and degree, and cache hit rates, pruning power and fragment reuse
// follow how often labelled substructures recur, which the label skew
// sets. Chemistry itself plays no part. The shape:
//   * vertex counts: log-normal fitted to mean 45 / σ 22, clipped to
//     [kMinVertices, max_vertices];
//   * edges: a random spanning tree plus a small number of cycle-closing
//     edges (edge count ≈ 1.05 × vertex count), with a degree cap of 4
//     (organic chemistry valence);
//   * labels: Zipf-like frequencies over `num_labels` atom types
//     (carbon-dominated skew).

#ifndef GCP_DATASET_AIDS_LIKE_HPP_
#define GCP_DATASET_AIDS_LIKE_HPP_

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace gcp {

/// \brief Shape parameters of the synthetic molecule corpus.
struct AidsLikeOptions {
  std::uint32_t num_graphs = 40000;
  double mean_vertices = 45.0;
  double stddev_vertices = 22.0;
  std::uint32_t min_vertices = 5;
  std::uint32_t max_vertices = 245;
  /// Target |E| / |V| ratio (AIDS: 47/45 ≈ 1.045).
  double edge_factor = 1.045;
  /// Valence cap for molecule-like structure.
  std::uint32_t max_degree = 4;
  std::uint32_t num_labels = 62;
  /// Zipf exponent of the label-frequency skew for the tail labels.
  double label_skew = 1.6;
  /// Explicit head of the label distribution, matching the atom-type
  /// frequencies of the real AIDS dataset (C, O, N, S, Cl); the remaining
  /// probability mass is spread Zipf-like over the tail labels. This
  /// concentration is what gives molecule datasets their rich cross-graph
  /// containment structure.
  std::vector<double> head_label_probs = {0.657, 0.168, 0.097, 0.025, 0.017};
  std::uint64_t seed = 42;
};

/// \brief Generates AIDS-like molecule graphs.
class AidsLikeGenerator {
 public:
  explicit AidsLikeGenerator(AidsLikeOptions options = {});

  /// Generates options.num_graphs graphs.
  std::vector<Graph> Generate();

  /// Generates one graph with `n` vertices (shape rules as above).
  Graph GenerateOne(std::uint32_t n);

  /// Samples a vertex count from the size distribution.
  std::uint32_t SampleSize();

  /// Samples a label from the skewed label distribution.
  Label SampleLabel();

  const AidsLikeOptions& options() const { return options_; }

 private:
  AidsLikeOptions options_;
  Rng rng_;
  std::vector<double> label_cdf_;
  double lognormal_mu_ = 0.0;
  double lognormal_sigma_ = 0.0;
};

}  // namespace gcp

#endif  // GCP_DATASET_AIDS_LIKE_HPP_
