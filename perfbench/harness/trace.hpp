// In-memory spans the benchmark records around each call it makes into a
// layer's public function, written out after the run. Nothing here runs
// inside the engine.

#ifndef PERFBENCH_HARNESS_TRACE_HPP_
#define PERFBENCH_HARNESS_TRACE_HPP_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/metrics.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kBootstrap,     ///< dataset.bootstrap: GraphDataset::Bootstrap.
  kConstruct,     ///< core.construct: the GraphCachePlus constructor.
  kQuery,         ///< core.query: GraphCachePlus::Query.
  kApplyChanges,  ///< core.apply_changes: GraphCachePlus::ApplyDatasetChanges.
  kMutate,        ///< dataset.mutate: the batch callback inside it.
  kFlush,         ///< core.flush: GraphCachePlus::FlushMaintenance.
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kBootstrap:
      return "dataset.bootstrap";
    case SpanName::kConstruct:
      return "core.construct";
    case SpanName::kQuery:
      return "core.query";
    case SpanName::kApplyChanges:
      return "core.apply_changes";
    case SpanName::kMutate:
      return "dataset.mutate";
    case SpanName::kFlush:
      return "core.flush";
  }
  return "unknown";
}

struct Span {
  SpanName name = SpanName::kQuery;
  std::int32_t parent = -1;   ///< Index in the same log, or -1.
  std::uint64_t request = 0;  ///< Shared by the spans of one harness call.
  std::int64_t start_ns = 0;  ///< Since the pass began.
  std::int64_t end_ns = 0;
  std::int32_t metrics = -1;  ///< Index into SpanLog::query_metrics.

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// The part of a core.query span the engine's own breakdown does not
/// cover: lock and queue wait, inline drains, result assembly.
inline std::int64_t UnattributedNs(const Span& span,
                                   const gcp::QueryMetrics& m) {
  return span.duration_ns() - m.QueryTimeNs() - m.t_maintenance_ns;
}

/// One engine's spans, in start order.
struct SpanLog {
  std::vector<Span> spans;
  /// The QueryMetrics breakdown each core.query span carries.
  std::vector<gcp::QueryMetrics> query_metrics;

  std::size_t Add(const Span& span) {
    spans.push_back(span);
    return spans.size() - 1;
  }

  std::size_t AddQuery(Span span, const gcp::QueryMetrics& m) {
    span.name = SpanName::kQuery;
    span.metrics = static_cast<std::int32_t>(query_metrics.size());
    query_metrics.push_back(m);
    return Add(span);
  }

  /// Duration minus the part covered by direct children (harness spans
  /// never overlap their siblings, so the children's durations add up).
  std::vector<std::int64_t> SelfTimes() const {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[i] = spans[i].duration_ns();
    }
    for (const Span& s : spans) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -=
                         s.duration_ns();
    }
    return self;
  }

  /// Appends one JSON object per span to `out`, tagged with `round`. A
  /// core.query span also lists the engine's own breakdown of that call and
  /// the remainder the breakdown does not cover.
  void WriteJsonLines(std::FILE* out, std::size_t round) const {
    const std::vector<std::int64_t> self = SelfTimes();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"round\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"parent\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld",
                   round, SpanNameString(s.name),
                   static_cast<unsigned long long>(s.request), s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
      if (s.metrics >= 0) {
        const gcp::QueryMetrics& m =
            query_metrics[static_cast<std::size_t>(s.metrics)];
        std::fprintf(
            out,
            ",\"validate_ns\":%lld,\"index_ns\":%lld,\"probe_ns\":%lld,"
            "\"discover_ns\":%lld,\"prune_ns\":%lld,\"fragment_ns\":%lld,"
            "\"verify_ns\":%lld,\"maintenance_ns\":%lld,"
            "\"unattributed_ns\":%lld,\"si_tests\":%llu,"
            "\"candidates\":%llu,\"sub_hits\":%u,\"super_hits\":%u,"
            "\"exact_hit\":%d,\"empty_shortcut\":%d,\"fragment_hits\":%u,"
            "\"fragment_computed\":%u,\"fragment_pruned\":%llu",
            static_cast<long long>(m.t_validate_ns),
            static_cast<long long>(m.t_index_ns),
            static_cast<long long>(m.t_probe_ns),
            static_cast<long long>(m.t_discover_ns),
            static_cast<long long>(m.t_prune_ns),
            static_cast<long long>(m.t_fragment_ns),
            static_cast<long long>(m.t_verify_ns),
            static_cast<long long>(m.t_maintenance_ns),
            static_cast<long long>(UnattributedNs(s, m)),
            static_cast<unsigned long long>(m.si_tests),
            static_cast<unsigned long long>(m.candidates_final), m.sub_hits,
            m.super_hits, m.exact_hit ? 1 : 0, m.empty_shortcut ? 1 : 0,
            m.fragment_hits, m.fragment_computed,
            static_cast<unsigned long long>(m.fragment_candidates_pruned));
      }
      std::fputs("}\n", out);
    }
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_HPP_
