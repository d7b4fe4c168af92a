// Statistics Monitor — per-query and aggregate metrics.
//
// The split mirrors the paper's reporting: Figure 4/5 need query time and
// sub-iso test counts (with and without GC+); Figure 6 needs the
// per-query breakdown into "query time" (probe + prune + verify) and
// "overhead" (window/cache maintenance, and for CON the log-analysis +
// validation cost, which §7.2 shows is <1% of CON overhead).

#ifndef GCP_CORE_METRICS_HPP_
#define GCP_CORE_METRICS_HPP_

#include <cstdint>
#include <string>

namespace gcp {

/// \brief Counters and timings of a single query execution.
struct QueryMetrics {
  std::uint64_t query_id = 0;

  // --- work counted -------------------------------------------------------
  std::uint64_t candidates_initial = 0;  ///< |CS_M(g)| (live dataset size).
  std::uint64_t candidates_final = 0;    ///< After formulas (2) and (5).
  std::uint64_t si_tests = 0;            ///< Sub-iso tests actually run.
  std::uint64_t tests_saved_sub = 0;     ///< Removed by formula (2).
  std::uint64_t tests_saved_super = 0;   ///< Removed by formula (5).
  std::uint64_t answer_size = 0;

  // --- hit anatomy ---------------------------------------------------------
  std::uint32_t sub_hits = 0;    ///< Cached g' with g ⊆ g' exploited.
  std::uint32_t super_hits = 0;  ///< Cached g'' with g'' ⊆ g exploited.
  bool exact_hit = false;        ///< §6.3 optimal case 1 fired.
  bool empty_shortcut = false;   ///< §6.3 optimal case 2 fired.

  // --- fragment cache ------------------------------------------------------
  std::uint32_t fragment_hits = 0;      ///< Resident fragments intersected.
  /// Stars checked on >= 1 candidate: misses and resident top-ups.
  std::uint32_t fragment_computed = 0;
  std::uint32_t fragment_intersections = 0;  ///< Mask AND-NOTs applied.
  std::uint64_t fragment_candidates_pruned = 0;  ///< Candidates removed.
  /// (star, graph) StarEmbeds checks run — the tier's verification work,
  /// counted apart from the Method M si_tests.
  std::uint64_t fragment_star_checks = 0;

  // --- timings (ns) --------------------------------------------------------
  std::int64_t t_validate_ns = 0;     ///< CON: Algorithms 1 + 2 (EVI: purge).
  std::int64_t t_index_ns = 0;        ///< FTV index maintenance + filter.
  std::int64_t t_probe_ns = 0;        ///< Hit discovery in the cache.
  /// Candidate enumeration inside t_probe_ns: the QueryIndex lookup that
  /// shortlists resident entries (scan or inverted index), before
  /// utilities and containment verification.
  std::int64_t t_discover_ns = 0;
  std::int64_t t_prune_ns = 0;        ///< Bitset algebra of formulas (1)-(5).
  /// Fragment mask intersection + direct star checks on the surviving
  /// candidates (the shard-lock fragment probes ride t_probe_ns with
  /// discovery).
  std::int64_t t_fragment_ns = 0;
  std::int64_t t_verify_ns = 0;       ///< Method M sub-iso testing.
  std::int64_t t_maintenance_ns = 0;  ///< Admission + replacement + indexing.

  /// "Query time" in the paper's Figure 6 sense: everything on the
  /// query's critical path (excludes maintenance, which GC+ overlaps with
  /// subsequent queries, and includes validation, candidate generation,
  /// probe, prune, verify).
  std::int64_t QueryTimeNs() const {
    return t_validate_ns + t_index_ns + t_probe_ns + t_prune_ns +
           t_fragment_ns + t_verify_ns;
  }
  /// "Overhead" in the Figure 6 sense.
  std::int64_t OverheadNs() const { return t_maintenance_ns; }
};

/// \brief Aggregates QueryMetrics over a workload run.
struct AggregateMetrics {
  std::uint64_t queries = 0;
  std::uint64_t si_tests = 0;
  std::uint64_t tests_saved_sub = 0;
  std::uint64_t tests_saved_super = 0;
  std::uint64_t exact_hits = 0;
  std::uint64_t exact_hits_zero_test = 0;
  std::uint64_t empty_shortcuts = 0;
  std::uint64_t sub_hits = 0;
  std::uint64_t super_hits = 0;
  std::uint64_t fragment_hits = 0;
  std::uint64_t fragment_computed = 0;
  std::uint64_t fragment_intersections = 0;
  std::uint64_t fragment_candidates_pruned = 0;
  std::uint64_t fragment_star_checks = 0;
  std::int64_t t_validate_ns = 0;
  std::int64_t t_index_ns = 0;
  std::int64_t t_probe_ns = 0;
  std::int64_t t_discover_ns = 0;
  std::int64_t t_prune_ns = 0;
  std::int64_t t_fragment_ns = 0;
  std::int64_t t_verify_ns = 0;
  std::int64_t t_maintenance_ns = 0;
  std::int64_t t_query_ns = 0;

  void Add(const QueryMetrics& m);

  double AvgQueryTimeMs() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(t_query_ns) / 1e6 /
                     static_cast<double>(queries);
  }
  double AvgOverheadMs() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(t_maintenance_ns) / 1e6 /
                     static_cast<double>(queries);
  }
  double AvgSiTests() const {
    return queries == 0
               ? 0.0
               : static_cast<double>(si_tests) / static_cast<double>(queries);
  }
  /// Share of CON-specific validation work within total overhead
  /// (validation + maintenance) — the paper's "<1% of CON overhead" claim.
  double ValidationShareOfOverhead() const;

  std::string ToString() const;
};

}  // namespace gcp

#endif  // GCP_CORE_METRICS_HPP_
