#include "core/metrics.hpp"

#include <sstream>

namespace gcp {

void AggregateMetrics::Add(const QueryMetrics& m) {
  ++queries;
  si_tests += m.si_tests;
  tests_saved_sub += m.tests_saved_sub;
  tests_saved_super += m.tests_saved_super;
  if (m.exact_hit) {
    ++exact_hits;
    if (m.si_tests == 0) ++exact_hits_zero_test;
  }
  if (m.empty_shortcut) ++empty_shortcuts;
  sub_hits += m.sub_hits;
  super_hits += m.super_hits;
  fragment_hits += m.fragment_hits;
  fragment_computed += m.fragment_computed;
  fragment_intersections += m.fragment_intersections;
  fragment_candidates_pruned += m.fragment_candidates_pruned;
  fragment_star_checks += m.fragment_star_checks;
  t_validate_ns += m.t_validate_ns;
  t_index_ns += m.t_index_ns;
  t_probe_ns += m.t_probe_ns;
  t_discover_ns += m.t_discover_ns;
  t_prune_ns += m.t_prune_ns;
  t_fragment_ns += m.t_fragment_ns;
  t_verify_ns += m.t_verify_ns;
  t_maintenance_ns += m.t_maintenance_ns;
  t_query_ns += m.QueryTimeNs();
}

double AggregateMetrics::ValidationShareOfOverhead() const {
  const double total =
      static_cast<double>(t_validate_ns) + static_cast<double>(t_maintenance_ns);
  if (total <= 0.0) return 0.0;
  return static_cast<double>(t_validate_ns) / total;
}

std::string AggregateMetrics::ToString() const {
  std::ostringstream os;
  os << "queries=" << queries << " si_tests=" << si_tests
     << " saved_sub=" << tests_saved_sub << " saved_super=" << tests_saved_super
     << " exact_hits=" << exact_hits << " empty_shortcuts=" << empty_shortcuts
     << " sub_hits=" << sub_hits << " super_hits=" << super_hits
     << " fragment_hits=" << fragment_hits
     << " fragment_pruned=" << fragment_candidates_pruned
     << " fragment_star_checks=" << fragment_star_checks
     << " avg_query_ms=" << AvgQueryTimeMs()
     << " avg_overhead_ms=" << AvgOverheadMs();
  return os.str();
}

}  // namespace gcp
