#include "answer_check.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

namespace {

class FingerprintBuilder {
 public:
  void Add(std::uint64_t id) {
    ++fp_.count;
    std::uint64_t s1 = fp_.h1 ^ id;
    fp_.h1 = gcp::SplitMix64(s1);
    std::uint64_t s2 = fp_.h2 + (id + 1) * 0xd6e8feb86659fd93ULL;
    fp_.h2 = gcp::SplitMix64(s2) ^ (fp_.h2 >> 29);
  }
  Fingerprint Done() const { return fp_; }

 private:
  Fingerprint fp_{0, 0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
};

/// Method M's answer for one (query, kind), kept at the latest version it
/// was needed at.
struct Reference {
  bool known = false;
  std::uint32_t version = 0;
  std::uint32_t stamp = 0;  ///< 1 + the version it was last scheduled for.
  gcp::DynamicBitset answer;
  Fingerprint fp;
};

}  // namespace

Fingerprint FingerprintOf(std::span<const gcp::GraphId> ascending_ids) {
  FingerprintBuilder b;
  for (const gcp::GraphId id : ascending_ids) b.Add(id);
  return b.Done();
}

Fingerprint FingerprintOf(const gcp::DynamicBitset& ids) {
  FingerprintBuilder b;
  ids.ForEachSetBit([&b](std::size_t id) { b.Add(id); });
  return b.Done();
}

CheckReport CheckAnswers(const std::vector<gcp::Graph>& corpus,
                         const std::vector<gcp::Graph>& queries,
                         std::span<const CallRecord> records,
                         const BatchFn& apply_batch, gcp::MatcherKind method,
                         std::size_t threads, BaseAnswers& base) {
  CheckReport report;
  report.checked = records.size();
  if (records.empty()) return report;

  gcp::GraphDataset dataset;
  dataset.Bootstrap(corpus);
  const gcp::MethodM method_m(method, dataset);
  gcp::ThreadPool pool(std::max<std::size_t>(1, threads));

  std::uint32_t last = 0;
  for (const CallRecord& r : records) last = std::max(last, r.hi);
  std::vector<std::vector<std::size_t>> starting(last + 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].lo > records[i].hi || records[i].query >= queries.size()) {
      report.wrong.push_back(i);  // No version can satisfy it.
    } else {
      starting[records[i].lo].push_back(i);
    }
  }

  auto key_of = [](const CallRecord& r) {
    return std::size_t{r.query} * 2 +
           (r.kind == gcp::QueryKind::kSubgraph ? 0 : 1);
  };
  if (base.size() < 2 * queries.size()) base.resize(2 * queries.size());
  std::unordered_map<std::size_t, Reference> refs;
  std::vector<gcp::LogSeq> seq_at{dataset.log().LatestSeq()};
  std::atomic<std::uint64_t> full_passes{0};
  std::atomic<std::uint64_t> rechecks{0};

  // Version-0 answers come from the untouched corpus, so a query first
  // needed late in a replay still starts from `base` and re-verifies only
  // what the batches touched. Distinct keys run in parallel; each task
  // writes only its own `base` slot.
  gcp::GraphDataset origin;
  origin.Bootstrap(corpus);
  const gcp::MethodM origin_m(method, origin);
  auto advance = [&](Reference& ref, const CallRecord& r, std::uint32_t v) {
    const gcp::Graph& q = queries[r.query];
    if (!ref.known) {
      gcp::DynamicBitset& at_zero = base[key_of(r)];
      if (at_zero.empty()) {
        at_zero = origin_m.VerifyCandidates(q, r.kind, origin.LiveMask());
        full_passes.fetch_add(1, std::memory_order_relaxed);
      }
      ref.known = true;
      ref.version = 0;
      ref.answer = at_zero;
    }
    if (ref.version < v) {
      const auto changes = dataset.log().ExtractSince(seq_at[ref.version]);
      gcp::DynamicBitset touched(dataset.IdHorizon());
      for (const gcp::ChangeRecord& c : changes) {
        if (dataset.IsLive(c.graph_id)) touched.Set(c.graph_id);
      }
      const gcp::DynamicBitset verified =
          method_m.VerifyCandidates(q, r.kind, touched);
      ref.answer.Resize(dataset.IdHorizon());
      for (const gcp::ChangeRecord& c : changes) {
        ref.answer.Set(c.graph_id, verified.Test(c.graph_id));
      }
      rechecks.fetch_add(touched.Count(), std::memory_order_relaxed);
    }
    ref.version = v;
    ref.fp = FingerprintOf(ref.answer);
  };

  std::vector<std::size_t> active;
  for (std::uint32_t v = 0; v <= last; ++v) {
    if (v > 0) {
      apply_batch(dataset, v - 1);
      seq_at.push_back(dataset.log().LatestSeq());
    }
    active.insert(active.end(), starting[v].begin(), starting[v].end());

    // One task per distinct (query, kind) whose reference is not at v yet.
    std::vector<std::pair<Reference*, const CallRecord*>> due;
    for (const std::size_t i : active) {
      Reference& ref = refs[key_of(records[i])];
      if ((ref.known && ref.version == v) || ref.stamp == v + 1) continue;
      ref.stamp = v + 1;
      due.emplace_back(&ref, &records[i]);
    }
    std::atomic<std::size_t> next{0};
    pool.ParallelFor(pool.num_threads(), [&](std::size_t) {
      for (std::size_t t = next.fetch_add(1); t < due.size();
           t = next.fetch_add(1)) {
        advance(*due[t].first, *due[t].second, v);
      }
    });

    std::vector<std::size_t> pending;
    for (const std::size_t i : active) {
      const CallRecord& r = records[i];
      if (refs[key_of(r)].fp == r.answer) continue;
      if (r.hi == v) {
        report.wrong.push_back(i);
      } else {
        pending.push_back(i);
      }
    }
    active.swap(pending);
  }
  std::sort(report.wrong.begin(), report.wrong.end());
  report.full_passes = full_passes.load();
  report.rechecks = rechecks.load();
  return report;
}

}  // namespace perfbench
