// The benchmark's answer check must reject an injected wrong answer and an
// answer from a dataset version the call could not have observed, and must
// accept every answer uncached Method M gives at a version in the window.

#include "answer_check.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dataset/aids_like.hpp"
#include "workload/query_gen.hpp"

namespace perfbench {
namespace {

using gcp::GraphId;
using gcp::QueryKind;

class AnswerCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gcp::AidsLikeOptions opts;
    opts.num_graphs = 40;
    opts.mean_vertices = 12;
    opts.stddev_vertices = 4;
    opts.max_vertices = 24;
    opts.seed = 5;
    corpus_ = gcp::AidsLikeGenerator(opts).Generate();
    // A 2-edge pattern taken from graph 0: graph 0 is in its answer.
    queries_.push_back(gcp::ExtractBfsQuery(corpus_[0], 0, 2));
  }

  /// Batch 0 deletes graph 0; batch 1 re-adds a copy of it.
  void ApplyBatch(gcp::GraphDataset& ds, std::size_t k) const {
    if (k == 0) {
      ASSERT_TRUE(ds.DeleteGraph(0).ok());
    } else {
      ds.AddGraph(corpus_[0]);
    }
  }

  /// Method M's answer to query 0 after the first `version` batches.
  std::vector<GraphId> Truth(std::size_t version) const {
    gcp::GraphDataset ds;
    ds.Bootstrap(corpus_);
    for (std::size_t k = 0; k < version; ++k) ApplyBatch(ds, k);
    const gcp::MethodM m(gcp::MatcherKind::kVf2, ds);
    std::vector<GraphId> ids;
    m.VerifyCandidates(queries_[0], QueryKind::kSubgraph, ds.LiveMask())
        .ForEachSetBit([&](std::size_t id) {
          ids.push_back(static_cast<GraphId>(id));
        });
    return ids;
  }

  CallRecord Record(std::uint32_t lo, std::uint32_t hi,
                    const std::vector<GraphId>& answer) const {
    CallRecord r;
    r.query = 0;
    r.kind = QueryKind::kSubgraph;
    r.lo = lo;
    r.hi = hi;
    r.answer = FingerprintOf(answer);
    return r;
  }

  CheckReport Check(const std::vector<CallRecord>& records) {
    return CheckAnswers(
        corpus_, queries_, records,
        [this](gcp::GraphDataset& ds, std::size_t k) { ApplyBatch(ds, k); },
        gcp::MatcherKind::kVf2, 2, base_);
  }

  std::vector<gcp::Graph> corpus_;
  std::vector<gcp::Graph> queries_;
  BaseAnswers base_;
};

TEST_F(AnswerCheckTest, VersionsDifferSoTheTestCanTellThemApart) {
  const auto v0 = Truth(0), v1 = Truth(1), v2 = Truth(2);
  ASSERT_FALSE(v0.empty());
  EXPECT_EQ(v0.front(), 0u);
  EXPECT_NE(v0, v1);
  EXPECT_NE(v1, v2);
}

TEST_F(AnswerCheckTest, AcceptsMethodMAnswersInTheirWindows) {
  const auto v0 = Truth(0), v1 = Truth(1), v2 = Truth(2);
  const CheckReport report =
      Check({Record(0, 0, v0), Record(1, 1, v1), Record(2, 2, v2),
             Record(0, 2, v1), Record(0, 1, v0), Record(1, 2, v2)});
  EXPECT_EQ(report.checked, 6u);
  EXPECT_TRUE(report.wrong.empty());
  EXPECT_EQ(report.full_passes, 1u);  // Later versions re-verify the delta.
}

TEST_F(AnswerCheckTest, LaterChecksStartFromTheSharedVersionZeroAnswer) {
  EXPECT_EQ(Check({Record(0, 0, Truth(0))}).full_passes, 1u);
  // A second replay first needs the query at version 2: it re-verifies
  // only the graphs the two batches touched.
  const CheckReport report = Check({Record(2, 2, Truth(2))});
  EXPECT_TRUE(report.wrong.empty());
  EXPECT_EQ(report.full_passes, 0u);
  EXPECT_EQ(report.rechecks, 1u);  // The re-added copy; graph 0 is gone.
  auto wrong = Truth(2);
  wrong.push_back(0);
  EXPECT_EQ(Check({Record(2, 2, wrong)}).wrong, std::vector<std::size_t>{0});
}

TEST_F(AnswerCheckTest, RejectsAnInjectedWrongAnswer) {
  auto wrong = Truth(1);
  ASSERT_FALSE(wrong.empty());
  wrong.pop_back();
  const CheckReport report = Check(
      {Record(0, 0, Truth(0)), Record(1, 1, wrong), Record(2, 2, Truth(2))});
  EXPECT_EQ(report.wrong, std::vector<std::size_t>{1});
}

TEST_F(AnswerCheckTest, RejectsAnAnswerFromAnImpossibleVersion) {
  // The version-0 answer returned by a call that began after batch 0
  // completed, and the version-2 answer returned before batch 2 began.
  const CheckReport report =
      Check({Record(1, 2, Truth(0)), Record(0, 1, Truth(2)),
             Record(2, 1, Truth(2))});
  EXPECT_EQ(report.wrong, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FingerprintTest, BitsetAndIdListAgreeAndDifferOnChange) {
  gcp::DynamicBitset bits(200);
  const std::vector<GraphId> ids = {3, 64, 65, 199};
  for (const GraphId id : ids) bits.Set(id);
  EXPECT_EQ(FingerprintOf(bits), FingerprintOf(ids));
  EXPECT_NE(FingerprintOf(ids), FingerprintOf(std::vector<GraphId>{3, 64, 65}));
  EXPECT_NE(FingerprintOf(ids),
            FingerprintOf(std::vector<GraphId>{3, 64, 66, 199}));
}

}  // namespace
}  // namespace perfbench
