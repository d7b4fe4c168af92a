// Exact answer check for the benchmark.
//
// Every Query call the harness makes is recorded with the answer it
// returned (as a fingerprint) and the window of dataset versions it could
// have observed. Version v is the dataset after the first v change batches.
// A call that began after `lo` batches had completed and returned before
// batch `hi + 1` had begun observed some version in [lo, hi]; with one
// client lo == hi. The check replays the batches on a private dataset and
// accepts an answer only if it equals uncached Method M's answer at one of
// the versions in its window.

#ifndef PERFBENCH_HARNESS_ANSWER_CHECK_HPP_
#define PERFBENCH_HARNESS_ANSWER_CHECK_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "core/method_m.hpp"
#include "dataset/dataset.hpp"

namespace perfbench {

/// Size plus two independent 64-bit hashes of an ascending id list. Storing
/// this instead of the ids keeps a long run's record set small; a false
/// match needs a 128-bit collision between two sets of the same size.
struct Fingerprint {
  std::uint64_t count = 0;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(std::span<const gcp::GraphId> ascending_ids);
Fingerprint FingerprintOf(const gcp::DynamicBitset& ids);

/// One Query call as the harness saw it.
struct CallRecord {
  std::uint32_t query = 0;  ///< Index into the query table.
  gcp::QueryKind kind = gcp::QueryKind::kSubgraph;
  std::uint32_t lo = 0;  ///< Batches completed when the call began.
  std::uint32_t hi = 0;  ///< Batches begun when the call returned.
  Fingerprint answer;
};

struct CheckReport {
  std::size_t checked = 0;
  std::vector<std::size_t> wrong;  ///< Indices of rejected records.
  /// Method M passes over the whole corpus (one per distinct query and
  /// kind not yet in `base`).
  std::uint64_t full_passes = 0;
  /// Single-graph re-verifications of graphs a batch touched, made when a
  /// query's reference answer moves to a later version.
  std::uint64_t rechecks = 0;
};

/// Applies change batch `k` (0-based) to `dataset`. Must reproduce the
/// batches of the checked run exactly, in order.
using BatchFn = std::function<void(gcp::GraphDataset& dataset, std::size_t k)>;

/// Method M's answers on the bare corpus (version 0), slot 2 * query +
/// (0 for subgraph, 1 for supergraph); an empty bitset is not yet known.
/// Several checks over one corpus and query table may share it.
using BaseAnswers = std::vector<gcp::DynamicBitset>;

/// Checks every record against uncached Method M (`method`, over the full
/// live dataset) on a private replay of the run: `corpus` bootstrapped,
/// then batch after batch through `apply_batch`. A reference answer starts
/// from one full pass over the corpus (version 0, kept in `base`); moving
/// it to a later version re-verifies exactly the graphs the change log
/// touched in between (every other graph is unchanged, so its containment
/// is too). Runs on at most `threads` threads. `base` grows to
/// 2 * queries.size() slots.
CheckReport CheckAnswers(const std::vector<gcp::Graph>& corpus,
                         const std::vector<gcp::Graph>& queries,
                         std::span<const CallRecord> records,
                         const BatchFn& apply_batch, gcp::MatcherKind method,
                         std::size_t threads, BaseAnswers& base);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ANSWER_CHECK_HPP_
