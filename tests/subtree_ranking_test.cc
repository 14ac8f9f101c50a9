#include "src/core/subtree_ranking.h"

#include <gtest/gtest.h>

#include "src/core/subtree_filter.h"
#include "src/html/parser.h"

namespace thor::core {
namespace {

// Pages with a static footer region and a dynamic answers region.
std::string MixedPage(const std::string& dynamic_text) {
  return "<div><p>static navigation links and boilerplate text</p></div>"
         "<table><tr><td>" + dynamic_text + "</td></tr></table>"
         "<div><p>copyright legal footer always identical words</p></div>";
}

struct Fixture {
  std::vector<html::ArenaTree> storage;
  std::vector<const html::ArenaTree*> trees;
  std::vector<CommonSubtreeSet> sets;

  explicit Fixture(const std::vector<std::string>& dynamic_texts) {
    for (const auto& text : dynamic_texts) {
      storage.push_back(html::ParseHtml(MixedPage(text)));
    }
    std::vector<std::vector<html::NodeId>> candidates;
    for (const auto& tree : storage) {
      trees.push_back(&tree);
      candidates.push_back(CandidateSubtrees(tree));
    }
    CommonSubtreeOptions options;
    options.prototype_page = 0;
    sets = FindCommonSubtreeSets(trees, candidates, options);
  }
};

const CommonSubtreeSet* FindSetByTag(const Fixture& f, html::TagId tag) {
  for (const auto& set : f.sets) {
    const auto& first = set.members[0];
    if (f.trees[static_cast<size_t>(first.page_index)]
            ->node(first.node)
            .tag == tag) {
      return &set;
    }
  }
  return nullptr;
}

TEST(SubtreeRankingTest, DynamicRegionsRankBelowStaticOnes) {
  Fixture f({"wildly different salmon words", "other unrelated zebra terms",
             "completely distinct walrus content", "nothing shared here",
             "every page differs entirely"});
  auto ranked = RankSubtreeSets(f.trees, f.sets, {});
  ASSERT_GE(ranked.size(), 2u);
  // Sorted ascending by intra-set similarity.
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].intra_similarity, ranked[i].intra_similarity);
  }
  // The most dynamic set must be the results region (table or its td);
  // the static footers sit at the top of the similarity scale.
  const auto& most_dynamic = ranked.front();
  EXPECT_LT(most_dynamic.intra_similarity, 0.2);
  const auto& most_static = ranked.back();
  EXPECT_GT(most_static.intra_similarity, 0.8);
}

TEST(SubtreeRankingTest, StaticSetsScoreNearOne) {
  Fixture f({"aaa", "bbb", "ccc", "ddd"});
  auto ranked = RankSubtreeSets(f.trees, f.sets, {});
  int static_sets = 0;
  for (const auto& rs : ranked) {
    if (rs.intra_similarity > 0.9) ++static_sets;
  }
  EXPECT_GE(static_sets, 2);  // nav and footer
}

TEST(SubtreeRankingTest, IsDynamicThreshold) {
  RankedSubtreeSet rs;
  rs.intra_similarity = 0.3;
  EXPECT_TRUE(rs.IsDynamic(0.5));
  EXPECT_FALSE(rs.IsDynamic(0.2));
}

TEST(SubtreeRankingTest, SingletonSetGetsSimilarityOne) {
  html::ArenaTree tree = html::ParseHtml("<p>lonely content</p>");
  CommonSubtreeSet set;
  set.members.push_back({0, tree.ResolvePath("html/body/p")});
  std::vector<const html::ArenaTree*> trees = {&tree};
  auto ranked = RankSubtreeSets(trees, {set}, {});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].intra_similarity, 1.0);
}

TEST(SubtreeRankingTest, WithoutTfidfEchoRegionsLookStatic) {
  // Mostly-identical text with one varying word: raw weighting sees high
  // similarity, the paper's TFIDF weighting sees low similarity (the
  // varying word dominates once the shared terms are down-weighted). This
  // is the Figure 9 mechanism.
  Fixture f({"your search for apple did not match",
             "your search for banana did not match",
             "your search for cherry did not match",
             "your search for plum did not match"});
  const CommonSubtreeSet* td_set = FindSetByTag(f, html::Tag::kTd);
  ASSERT_NE(td_set, nullptr);
  SubtreeRankOptions with_tfidf;
  with_tfidf.use_tfidf = true;
  SubtreeRankOptions without_tfidf;
  without_tfidf.use_tfidf = false;
  auto tfidf_ranked = RankSubtreeSets(f.trees, {*td_set}, with_tfidf);
  auto raw_ranked = RankSubtreeSets(f.trees, {*td_set}, without_tfidf);
  ASSERT_EQ(tfidf_ranked.size(), 1u);
  ASSERT_EQ(raw_ranked.size(), 1u);
  EXPECT_LT(tfidf_ranked[0].intra_similarity,
            raw_ranked[0].intra_similarity);
  EXPECT_GT(raw_ranked[0].intra_similarity, 0.6);
}

TEST(SubtreeRankingTest, IdenticalContentScoresExactlyOne) {
  Fixture f({"same words", "same words", "same words"});
  const CommonSubtreeSet* td_set = FindSetByTag(f, html::Tag::kTd);
  ASSERT_NE(td_set, nullptr);
  auto ranked = RankSubtreeSets(f.trees, {*td_set}, {});
  EXPECT_NEAR(ranked[0].intra_similarity, 1.0, 1e-9);
}

TEST(SubtreeRankingTest, EmptySetsListIsFine) {
  std::vector<const html::ArenaTree*> trees;
  EXPECT_TRUE(RankSubtreeSets(trees, {}, {}).empty());
}

}  // namespace
}  // namespace thor::core
