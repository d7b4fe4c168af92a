// perfbench — the repository benchmark.
//
//   perfbench --workload <hot-read|evi-churn|mixed-rw> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Generates one workload's inputs from the seed and drives GraphCachePlus
// from outside, through its public calls only, on GraphCachePlusOptions
// defaults (a workload sets `model` and nothing else). Every Query and
// ApplyDatasetChanges call is timed by the harness, every answer is checked
// against uncached Method M, and every metric is printed by name with its
// unit. The last line of stdout is one JSON object; the exit code is
// non-zero when an answer is wrong or a call failed. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "answer_check.hpp"
#include "common/rng.hpp"
#include "core/graphcache_plus.hpp"
#include "dataset/aids_like.hpp"
#include "dataset/change_plan.hpp"
#include "graph/canonical.hpp"
#include "trace.hpp"
#include "workload/type_a.hpp"
#include "workload/type_b.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

// --- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string_view name;
  gcp::CacheModel model;
  std::string_view queries;  ///< Type A "ZZ"/"UU", or Type B "20%".
  double supergraph_share;   ///< Share of calls issued as supergraph queries.
  /// Queries per change batch; 0 = no batch fires among the reads.
  std::uint64_t queries_per_batch;
  std::uint64_t round_queries;  ///< Measured queries per round.
};

// hot-read: skewed reuse, no changes, so the hit path carries the work.
// evi-churn: uniform queries overflow the cache and EVI purges on every
//   batch, so most calls run Method M and the fragment tier's on-miss path.
// mixed-rw: writes between reads, Type B no-answer queries and a supergraph
//   share, so Algorithms 1+2, the empty-answer shortcut and the GC+super
//   processor are on the path. One client: with two, an update waits for
//   the other client's call in flight, and the median of that wait moved by
//   30% between runs of ten seeds; with four on four vCPUs the lock path's
//   reader-preferring engine lock starved the writer outright.
constexpr WorkloadSpec kWorkloads[] = {
    {"hot-read", gcp::CacheModel::kCon, "ZZ", 0.0, 0, 3000},
    {"evi-churn", gcp::CacheModel::kEvi, "UU", 0.0, 100, 400},
    {"mixed-rw", gcp::CacheModel::kCon, "20%", 0.25, 100, 3000},
};

// The paper's AIDS setup at 1/8 scale: 40,000 graphs -> 5,000, Type B pools
// 10,000 / 3,000 -> 1,250 / 375. Its change plan: ADD/DEL/UA/UR uniform,
// 20 operations per batch, one batch per 100 queries.
constexpr std::uint32_t kCorpusGraphs = 5000;
/// The corpus is one fixed dataset, as AIDS is in the paper; the seed
/// draws the workload on it: queries, their kinds and the change plan.
constexpr std::uint64_t kCorpusSeed = 42;
constexpr std::size_t kAnswerPool = 1250;
constexpr std::size_t kNoAnswerPool = 375;
constexpr std::uint32_t kOpsPerBatch = 20;
/// Every round ends with this many batches fired back to back, after its
/// reads. hot-read fires no batch among its reads and the others a few
/// dozen at most, so without these a run would not have ten update samples
/// beyond p90. With one client nothing reads or waits in the queue when a
/// batch fires, among the reads or after them, so both measure the same
/// barrier, drain and mutation.
constexpr std::uint32_t kTailBatches = 100;

/// A run is max(5, seconds / 3) rounds, each a fresh engine driven through
/// a fixed number of queries. The work depends on --seconds only, never on
/// how fast the engine is, so two commits always measure the same calls,
/// and a fixed round length keeps CON's validity fading, which grows with
/// every batch, at the same stage.
std::size_t Rounds(double seconds) {
  return std::max<std::size_t>(
      5, static_cast<std::size_t>(std::llround(seconds / 3.0)));
}

/// The distinct query graphs of a run. Identical graphs share one slot, so
/// the answer check computes each reference answer once.
struct QueryTable {
  std::vector<gcp::Graph> graphs;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_digest;

  std::uint32_t Intern(gcp::Graph g) {
    auto& bucket = by_digest[gcp::WlDigest(g)];
    for (const std::uint32_t i : bucket) {
      if (graphs[i] == g) return i;
    }
    bucket.push_back(static_cast<std::uint32_t>(graphs.size()));
    graphs.push_back(std::move(g));
    return bucket.back();
  }
};

/// One round's workload over the shared corpus.
struct Round {
  /// The call sequence, warm-up window first: (QueryTable slot, kind).
  std::vector<std::pair<std::uint32_t, gcp::QueryKind>> stream;
  gcp::ChangePlan plan;  ///< Batch k has at_query k + 1.
  std::uint64_t executor_seed = 0;
};

/// The run's workload from its seed. Every round draws its own queries
/// (its own Type B pools), kinds and change plan: pooling several draws
/// averages out which few queries a Zipf draw happens to favour.
std::vector<Round> MakeRounds(const WorkloadSpec& spec,
                              const std::vector<gcp::Graph>& corpus,
                              std::size_t window, std::size_t rounds,
                              std::uint64_t seed, QueryTable& table) {
  const std::size_t calls = window + spec.round_queries;
  const std::uint32_t batches =
      (spec.queries_per_batch == 0
           ? 0
           : static_cast<std::uint32_t>((spec.round_queries - 1) /
                                        spec.queries_per_batch)) +
      kTailBatches;
  std::uint64_t state = seed;
  std::vector<Round> out(rounds);
  for (Round& in : out) {
    const std::uint64_t query_seed = gcp::SplitMix64(state);
    gcp::Workload w;
    if (spec.queries == "20%") {
      gcp::TypeBOptions b;
      b.no_answer_prob = 0.2;
      b.answer_pool_size = kAnswerPool;
      b.no_answer_pool_size = kNoAnswerPool;
      b.num_queries = calls;
      b.seed = query_seed;
      w = gcp::GenerateTypeB(corpus, b);
    } else {
      w = gcp::GenerateTypeAByName(corpus, std::string(spec.queries), calls,
                                   query_seed);
    }
    gcp::Rng kind_rng(gcp::SplitMix64(state));
    for (gcp::WorkloadQuery& wq : w.queries) {
      const gcp::QueryKind kind = kind_rng.Bernoulli(spec.supergraph_share)
                                      ? gcp::QueryKind::kSupergraph
                                      : gcp::QueryKind::kSubgraph;
      in.stream.emplace_back(table.Intern(std::move(wq.query)), kind);
    }
    gcp::Rng plan_rng(gcp::SplitMix64(state));
    in.plan = gcp::ChangePlan::Generate(plan_rng, 1, batches, kOpsPerBatch,
                                        kCorpusGraphs);
    for (std::size_t k = 0; k < in.plan.batches.size(); ++k) {
      in.plan.batches[k].at_query = static_cast<std::uint32_t>(k + 1);
    }
    in.executor_seed = gcp::SplitMix64(state);
  }
  return out;
}

// --- Driving the engine ------------------------------------------------------

struct Engine {
  std::unique_ptr<gcp::GraphDataset> dataset;
  std::unique_ptr<gcp::GraphCachePlus> gc;
  std::unique_ptr<gcp::ChangePlanExecutor> executor;
};

struct UpdateSample {
  std::int64_t latency_ns = 0;
  std::int64_t mutate_ns = 0;
};

/// What the harness saw of one engine's calls.
struct Calls {
  std::vector<std::int64_t> latency_ns;  ///< Completed Query calls.
  std::vector<CallRecord> records;
  std::vector<UpdateSample> updates;
  std::uint64_t failed = 0;  ///< Calls that threw.
  SpanLog log;
};

/// One pass's bookkeeping: the dataset version (the corpus plus the first
/// `batches` batches of the round) and, when tracing, the span clock.
struct PassState {
  std::uint32_t batches = 0;
  std::uint64_t next_request = 0;
  bool tracing = false;
  Clock::time_point origin = Clock::now();

  std::int64_t Since(Clock::time_point t) const { return Nanos(t - origin); }
};

void TimedQuery(Engine& e, const std::vector<gcp::Graph>& queries,
                const Round& in, std::size_t pos, PassState& st, Calls& out) {
  const auto& [q, kind] = in.stream[pos];
  gcp::QueryResult r;
  const Clock::time_point t0 = Clock::now();
  try {
    r = e.gc->Query(queries[q], kind);
  } catch (...) {
    ++out.failed;
    return;
  }
  const Clock::time_point t1 = Clock::now();
  out.latency_ns.push_back(Nanos(t1 - t0));
  // One client: no batch can land during the call, so its window is the
  // single current version.
  out.records.push_back({q, kind, st.batches, st.batches,
                         FingerprintOf(r.answer)});
  if (st.tracing) {
    Span s;
    s.request = st.next_request++;
    s.start_ns = st.Since(t0);
    s.end_ns = st.Since(t1);
    out.log.AddQuery(s, r.metrics);
  }
}

void FireBatch(Engine& e, PassState& st, Calls& out) {
  if (e.executor->Exhausted()) return;
  const std::uint32_t k = st.batches;
  Span apply;
  apply.name = SpanName::kApplyChanges;
  apply.request = st.next_request++;
  const std::size_t parent = st.tracing ? out.log.Add(apply) : 0;
  UpdateSample sample;
  const Clock::time_point t0 = Clock::now();
  try {
    e.gc->ApplyDatasetChanges([&](gcp::GraphDataset&) {
      const Clock::time_point m0 = Clock::now();
      e.executor->AdvanceTo(k + 1);
      const Clock::time_point m1 = Clock::now();
      sample.mutate_ns = Nanos(m1 - m0);
      if (st.tracing) {
        Span s = apply;
        s.name = SpanName::kMutate;
        s.parent = static_cast<std::int32_t>(parent);
        s.start_ns = st.Since(m0);
        s.end_ns = st.Since(m1);
        out.log.Add(s);
      }
    });
  } catch (...) {
    ++out.failed;
  }
  const Clock::time_point t1 = Clock::now();
  st.batches = k + 1;
  sample.latency_ns = Nanos(t1 - t0);
  out.updates.push_back(sample);
  if (st.tracing) {
    out.log.spans[parent].start_ns = st.Since(t0);
    out.log.spans[parent].end_ns = st.Since(t1);
  }
}

/// Runs `fn`, adding a harness span around it to `out` when tracing;
/// returns its duration either way.
template <typename Fn>
std::int64_t Traced(SpanName name, PassState& st, Calls& out, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::time_point t1 = Clock::now();
  if (st.tracing) {
    Span s;
    s.name = name;
    s.request = st.next_request++;
    s.start_ns = st.Since(t0);
    s.end_ns = st.Since(t1);
    out.log.Add(s);
  }
  return Nanos(t1 - t0);
}

/// One engine's life over one round's inputs.
struct Pass {
  std::size_t round = 0;
  bool traced = false;
  /// Cold start as a user pays it: Bootstrap, construction, one window.
  double setup_s = 0;
  std::int64_t bootstrap_ns = 0;
  std::int64_t construct_ns = 0;
  Calls setup;  ///< Warm-up answers (version 0) and set-up spans.
  Calls reads;  ///< The measured queries, then the batches.
  double wall_s = 0;  ///< The measured queries.
  std::int64_t flush_ns = 0;
  gcp::StatisticsManager stats_before;
  gcp::StatisticsManager stats_after;
};

/// Set-up, then one closed-loop client runs the round's measured queries,
/// firing each batch as it falls due, then the tail batches back to back,
/// then a flush. Warm-up answers are checked like the others but are not
/// latency samples.
Pass RunPass(const WorkloadSpec& spec, const std::vector<gcp::Graph>& corpus,
             const std::vector<gcp::Graph>& queries, const Round& in,
             std::size_t round, bool traced) {
  Pass pass;
  pass.round = round;
  pass.traced = traced;
  PassState st;
  st.tracing = traced;
  Engine e;

  const Clock::time_point t0 = Clock::now();
  e.dataset = std::make_unique<gcp::GraphDataset>();
  pass.bootstrap_ns = Traced(SpanName::kBootstrap, st, pass.setup,
                             [&] { e.dataset->Bootstrap(corpus); });
  gcp::GraphCachePlusOptions options;
  options.model = spec.model;
  pass.construct_ns = Traced(SpanName::kConstruct, st, pass.setup, [&] {
    e.gc = std::make_unique<gcp::GraphCachePlus>(e.dataset.get(), options);
  });
  const std::size_t window = e.gc->options().window_capacity;
  for (std::size_t i = 0; i < window; ++i) {
    TimedQuery(e, queries, in, i, st, pass.setup);
  }
  pass.setup_s = static_cast<double>(Nanos(Clock::now() - t0)) / 1e9;
  pass.setup.latency_ns.clear();
  e.executor = std::make_unique<gcp::ChangePlanExecutor>(
      in.plan, corpus, *e.dataset, gcp::Rng(in.executor_seed));

  pass.stats_before = e.gc->CacheStatsSnapshot();
  const std::uint64_t every = spec.queries_per_batch;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < spec.round_queries; ++i) {
    if (every != 0 && i > 0 && i % every == 0) FireBatch(e, st, pass.reads);
    TimedQuery(e, queries, in, window + i, st, pass.reads);
  }
  pass.wall_s = static_cast<double>(Nanos(Clock::now() - start)) / 1e9;

  for (std::uint32_t b = 0; b < kTailBatches; ++b) {
    FireBatch(e, st, pass.reads);
  }
  pass.flush_ns = Traced(SpanName::kFlush, st, pass.reads,
                         [&] { e.gc->FlushMaintenance(); });
  pass.stats_after = e.gc->CacheStatsSnapshot();
  return pass;
}

// --- Reporting -----------------------------------------------------------------

/// 1-based nearest rank of percentile p in (0, 100] among n > 0 samples.
std::size_t Rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of ascending `v`.
double Percentile(const std::vector<std::int64_t>& v, double p) {
  return v.empty() ? 0.0 : static_cast<double>(v[Rank(v.size(), p) - 1]);
}

template <typename T>
T Median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? T{} : v[v.size() / 2];
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// The passes of one kind (traced or not) pooled into one sample set.
struct Pooled {
  std::vector<const Pass*> passes;
  std::vector<std::int64_t> latency_ns;  ///< Ascending.
  std::vector<UpdateSample> updates;
  double wall_s = 0;
  std::uint64_t queries = 0;

  Pooled(const std::vector<Pass>& all, bool traced) {
    for (const Pass& p : all) {
      if (p.traced != traced) continue;
      passes.push_back(&p);
      wall_s += p.wall_s;
      queries += p.reads.latency_ns.size();
      latency_ns.insert(latency_ns.end(), p.reads.latency_ns.begin(),
                        p.reads.latency_ns.end());
      updates.insert(updates.end(), p.reads.updates.begin(),
                     p.reads.updates.end());
    }
    std::sort(latency_ns.begin(), latency_ns.end());
  }

  double MeanLatencyMs() const {
    double sum = 0;
    for (const std::int64_t ns : latency_ns) sum += static_cast<double>(ns);
    return latency_ns.empty() ? 0.0
                              : sum / static_cast<double>(latency_ns.size()) /
                                    1e6;
  }
};

/// The sample count behind a percentile and how many samples lie beyond it.
std::string Beyond(std::size_t n, double p) {
  return "n=" + std::to_string(n) + ", " +
         std::to_string(n == 0 ? 0 : n - Rank(n, p)) + " beyond p" +
         std::to_string(static_cast<int>(p));
}

std::vector<Metric> EndToEnd(const Pooled& r, double peak_rss_mb) {
  const std::vector<std::int64_t>& lat = r.latency_ns;
  std::vector<std::int64_t> upd;
  for (const UpdateSample& u : r.updates) upd.push_back(u.latency_ns);
  std::sort(upd.begin(), upd.end());
  std::vector<double> setup_s;
  for (const Pass* p : r.passes) setup_s.push_back(p->setup_s);
  return {
      {"query_p50_ms", Percentile(lat, 50) / 1e6, "ms", Beyond(lat.size(), 50)},
      {"query_p99_ms", Percentile(lat, 99) / 1e6, "ms", Beyond(lat.size(), 99)},
      {"qps", static_cast<double>(r.queries) / r.wall_s, "1/s",
       std::to_string(r.queries) + " queries in " + std::to_string(r.wall_s) +
           " s of reads"},
      {"update_p50_ms", Percentile(upd, 50) / 1e6, "ms", Beyond(upd.size(), 50)},
      {"update_p90_ms", Percentile(upd, 90) / 1e6, "ms", Beyond(upd.size(), 90)},
      {"setup_s", Median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", peak_rss_mb, "MB", "getrusage ru_maxrss"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> PerLayer(const Pooled& r, double untraced_mean_ms) {
  double n = 0, query_ns = 0, unattributed_ns = 0;
  gcp::AggregateMetrics a;
  double hit_queries = 0, hits = 0, candidates = 0;
  double evictions = 0, purges = 0, touched = 0, skipped = 0, resident = 0;
  std::vector<std::int64_t> bootstrap, construct;
  double flush_ns = 0;
  for (const Pass* p : r.passes) {
    for (const Span& s : p->reads.log.spans) {
      if (s.name != SpanName::kQuery) continue;
      const gcp::QueryMetrics& m =
          p->reads.log.query_metrics[static_cast<std::size_t>(s.metrics)];
      n += 1;
      a.Add(m);
      query_ns += static_cast<double>(s.duration_ns());
      unattributed_ns += static_cast<double>(UnattributedNs(s, m));
      const double h = m.sub_hits + m.super_hits + (m.exact_hit ? 1 : 0) +
                       (m.empty_shortcut ? 1 : 0);
      hits += h;
      if (h > 0) hit_queries += 1;
      candidates += static_cast<double>(m.candidates_final);
    }
    const gcp::StatisticsManager& s0 = p->stats_before;
    const gcp::StatisticsManager& s1 = p->stats_after;
    evictions += static_cast<double>(s1.total_evictions - s0.total_evictions);
    purges += static_cast<double>(s1.total_cache_clears - s0.total_cache_clears);
    touched += static_cast<double>(s1.reconcile_entries_touched -
                                   s0.reconcile_entries_touched);
    skipped += static_cast<double>(s1.reconcile_entries_skipped -
                                   s0.reconcile_entries_skipped);
    resident += static_cast<double>(
        s1.approx_graph_bytes + s1.approx_bitset_bytes +
        s1.approx_posting_bytes + s1.approx_fragment_bytes);
    bootstrap.push_back(p->bootstrap_ns);
    construct.push_back(p->construct_ns);
    flush_ns += static_cast<double>(p->flush_ns);
  }
  double updates = 0, mutate_ns = 0, wait_ns = 0;
  for (const UpdateSample& u : r.updates) {
    updates += 1;
    mutate_ns += static_cast<double>(u.mutate_ns);
    wait_ns += static_cast<double>(u.latency_ns - u.mutate_ns);
  }
  const double passes = static_cast<double>(r.passes.size());
  auto per_q = [&](double x) { return Ratio(x, n); };
  auto ms_per_q = [&](double ns) { return Ratio(ns, n) / 1e6; };
  const double mean_ms = ms_per_q(query_ns);
  return {
      {"match.verify_ms", ms_per_q(a.t_verify_ns), "ms", "mean per query"},
      {"match.si_tests_per_query", per_q(a.si_tests), "count",
       "QueryMetrics::si_tests; excludes fragment star checks"},
      {"match.si_tests_per_s",
       Ratio(static_cast<double>(a.si_tests), a.t_verify_ns / 1e9), "1/s",
       "tests per second of verify time"},
      {"match.candidates_per_query", per_q(candidates), "count",
       "candidates left for Method M after every pruning step"},
      {"cache.fragment_ms", ms_per_q(a.t_fragment_ns), "ms", "mean per query"},
      {"cache.fragment_computed_per_query", per_q(a.fragment_computed),
       "count", "stars verified against all of CS_M on a miss"},
      {"cache.fragment_pruned_per_query", per_q(a.fragment_candidates_pruned),
       "count", "candidates removed by fragment masks"},
      {"cache.fragment_hits_per_query", per_q(a.fragment_hits), "count",
       "resident fragments intersected"},
      {"cache.probe_ms", ms_per_q(a.t_probe_ns - a.t_discover_ns), "ms",
       "probe self time; discovery excluded"},
      {"cache.discover_ms", ms_per_q(a.t_discover_ns), "ms", "mean per query"},
      {"cache.hit_rate", per_q(hit_queries), "ratio",
       "queries with >= 1 hit / queries"},
      {"cache.exact_hit_rate", per_q(a.exact_hits), "ratio",
       "exact hits / queries"},
      {"cache.hits_per_query", per_q(hits), "count",
       "sub + super hits, an exact hit or empty proof counting 1"},
      {"cache.tests_saved_per_query",
       per_q(a.tests_saved_sub + a.tests_saved_super), "count",
       "formulas (2) + (5)"},
      {"cache.evictions", Ratio(evictions, passes), "count", "per round"},
      {"cache.purges", Ratio(purges, passes), "count", "per round"},
      {"cache.resident_kb", Ratio(resident, passes) / 1024.0, "KiB",
       "graphs + bitsets + postings + fragments at round end"},
      {"cache.reconcile_touched_frac", Ratio(touched, touched + skipped),
       "ratio", "touched / (touched + skipped)"},
      {"core.validate_ms", ms_per_q(a.t_validate_ns), "ms", "mean per query"},
      {"core.prune_ms", ms_per_q(a.t_prune_ns), "ms", "mean per query"},
      {"core.maintenance_ms", ms_per_q(a.t_maintenance_ns), "ms",
       "mean per query"},
      {"core.unattributed_ms", ms_per_q(unattributed_ns), "ms",
       "Query span - QueryTimeNs() - t_maintenance_ns"},
      {"core.query_ms", mean_ms, "ms", "mean traced Query span"},
      {"core.update_wait_ms", Ratio(wait_ns, updates) / 1e6, "ms",
       "update latency - dataset.mutate"},
      {"core.construct_ms", static_cast<double>(Median(construct)) / 1e6, "ms",
       "median over set-ups"},
      {"core.flush_ms", Ratio(flush_ns, passes) / 1e6, "ms",
       "FlushMaintenance at round end"},
      {"dataset.mutate_ms", Ratio(mutate_ns, updates) / 1e6, "ms",
       "mean per batch"},
      {"dataset.bootstrap_ms", static_cast<double>(Median(bootstrap)) / 1e6,
       "ms", "median over set-ups"},
      {"trace.queries", n, "count", "traced Query calls"},
      {"trace.overhead_ms", mean_ms - untraced_mean_ms, "ms",
       "mean traced - mean untraced Query latency, same calls"},
  };
}

/// The shortest decimal that reads back as exactly `v`.
std::string Digits(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                Digits(metrics[i].value).c_str(), metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (w.name == value) args->spec = &w;
      }
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') args->seconds = 0;
    } else if (key == "--trace") {
      if (value == "0" || value == "1") args->trace = value[0] - '0';
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->spec != nullptr && have_seed &&
         args->seconds > 0 && args->trace >= 0;
}

double Seconds(Clock::time_point since) {
  return static_cast<double>(Nanos(Clock::now() - since)) / 1e9;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot-read|evi-churn|mixed-rw> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out "
                 "<file>]\n");
    return 2;
  }
  const WorkloadSpec& spec = *args.spec;
  const bool trace = args.trace == 1;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Traced runs pair every round with an untraced pass over the same calls
  // (for the overhead), so they run half as many rounds.
  const std::size_t rounds =
      trace ? std::max<std::size_t>(2, (Rounds(args.seconds) + 1) / 2)
            : Rounds(args.seconds);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u clients=1 model=%s rounds=%zu x %llu queries\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, nproc,
              std::string(gcp::CacheModelName(spec.model)).c_str(), rounds,
              static_cast<unsigned long long>(spec.round_queries));

  Clock::time_point phase = Clock::now();
  gcp::AidsLikeOptions corpus_options;
  corpus_options.num_graphs = kCorpusGraphs;
  corpus_options.seed = kCorpusSeed;
  const std::vector<gcp::Graph> corpus =
      gcp::AidsLikeGenerator(corpus_options).Generate();
  const std::size_t window = gcp::GraphCachePlusOptions().window_capacity;

  QueryTable table;
  const std::vector<Round> inputs =
      MakeRounds(spec, corpus, window, rounds, args.seed, table);
  const double generate_s = Seconds(phase);
  std::vector<Pass> passes;
  for (std::size_t r = 0; r < rounds; ++r) {
    if (trace) {
      passes.push_back(
          RunPass(spec, corpus, table.graphs, inputs[r], r, false));
    }
    passes.push_back(RunPass(spec, corpus, table.graphs, inputs[r], r, trace));
  }
  const double peak_rss_mb = PeakRssMb();
  double measured_s = 0;
  for (const Pass& p : passes) measured_s += p.setup_s + p.wall_s;
  std::printf("# input generation %.2f s, set-ups + reads %.2f s\n",
              generate_s, measured_s);

  if (trace && !args.trace_out.empty()) {
    if (std::FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
      for (const Pass& p : passes) {
        if (!p.traced) continue;
        p.setup.log.WriteJsonLines(f, p.round);
        p.reads.log.WriteJsonLines(f, p.round);
      }
      std::fclose(f);
      std::printf("# trace written to %s\n", args.trace_out.c_str());
    } else {
      std::printf("# cannot write trace file %s\n", args.trace_out.c_str());
    }
  }

  // The oracle pass, outside every timed span: each round's calls against
  // its own replay (every pass of a round is one lineage, version v being
  // the corpus plus the round's first v batches).
  phase = Clock::now();
  std::uint64_t attempted = 0, failed_calls = 0, full_passes = 0, rechecks = 0;
  std::size_t wrong = 0;
  BaseAnswers base;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<CallRecord> records;
    for (const Pass& p : passes) {
      if (p.round != r) continue;
      for (const Calls* c : {&p.setup, &p.reads}) {
        records.insert(records.end(), c->records.begin(), c->records.end());
        failed_calls += c->failed;
      }
    }
    const Round& in = inputs[r];
    std::unique_ptr<gcp::ChangePlanExecutor> replay;
    const BatchFn apply_batch = [&](gcp::GraphDataset& ds, std::size_t k) {
      if (replay == nullptr) {
        replay = std::make_unique<gcp::ChangePlanExecutor>(
            in.plan, corpus, ds, gcp::Rng(in.executor_seed));
      }
      replay->AdvanceTo(static_cast<std::uint32_t>(k + 1));
    };
    const CheckReport check =
        CheckAnswers(corpus, table.graphs, records, apply_batch,
                     gcp::GraphCachePlusOptions().method_m, nproc, base);
    attempted += records.size();
    wrong += check.wrong.size();
    full_passes += check.full_passes;
    rechecks += check.rechecks;
    for (std::size_t i = 0; i < std::min<std::size_t>(check.wrong.size(), 3);
         ++i) {
      const CallRecord& c = records[check.wrong[i]];
      std::printf("# WRONG answer: round %zu query %u (%s) window [%u, %u], "
                  "%llu ids\n",
                  r, c.query,
                  c.kind == gcp::QueryKind::kSubgraph ? "subgraph"
                                                      : "supergraph",
                  c.lo, c.hi, static_cast<unsigned long long>(c.answer.count));
    }
  }
  attempted += failed_calls;
  std::printf("# answer check: %llu answers, %zu wrong, %llu Method M full "
              "passes + %llu single-graph rechecks on %u threads (%.2f s)\n",
              static_cast<unsigned long long>(attempted - failed_calls), wrong,
              static_cast<unsigned long long>(full_passes),
              static_cast<unsigned long long>(rechecks), nproc,
              Seconds(phase));

  const std::uint64_t failed = wrong + failed_calls;
  const bool correct = failed == 0;
  std::printf("error_rate %.12g (wrong + failed calls / queries attempted: "
              "%zu + %llu / %llu)\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              wrong, static_cast<unsigned long long>(failed_calls),
              static_cast<unsigned long long>(attempted));

  const Pooled untraced(passes, false);
  const std::vector<Metric> metrics =
      trace ? PerLayer(Pooled(passes, true), untraced.MeanLatencyMs())
            : EndToEnd(untraced, peak_rss_mb);
  for (const Metric& m : metrics) {
    std::printf("%s %s %s%s%s%s\n", m.name.c_str(), Digits(m.value).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : " (", m.note.c_str(),
                m.note.empty() ? "" : ")");
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
