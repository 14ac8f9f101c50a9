#include "src/core/subtree_ranking.h"

#include <algorithm>

#include "src/core/signature_builder.h"
#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/ir/vocabulary.h"
#include "src/util/parallel.h"

namespace thor::core {

std::vector<RankedSubtreeSet> RankSubtreeSets(
    const std::vector<const html::ArenaTree*>& trees,
    const std::vector<CommonSubtreeSet>& sets,
    const SubtreeRankOptions& options) {
  // Every set carries its own vocabulary and TFIDF statistics, exactly as
  // the paper scopes them ("n_j is the total number of subtrees in common
  // subtree set j") — which also makes the sets independent units of work.
  std::vector<RankedSubtreeSet> ranked = ParallelMap(
      sets.size(),
      [&](size_t set_index) {
        const CommonSubtreeSet& set = sets[set_index];
        RankedSubtreeSet rs;
        rs.set = set;
        if (set.members.size() < 2) {
          rs.intra_similarity = 1.0;  // no cross-page evidence
          return rs;
        }
        ir::Vocabulary vocab;
        std::vector<ir::SparseVector> counts;
        counts.reserve(set.members.size());
        for (const SubtreeRef& ref : set.members) {
          counts.push_back(TermCountVector(
              *trees[static_cast<size_t>(ref.page_index)], ref.node, &vocab,
              options.terms));
        }
        ir::TfidfModel model = ir::TfidfModel::Fit(counts);
        std::vector<ir::SparseVector> weighted = model.WeighAll(
            counts,
            options.use_tfidf ? ir::Weighting::kTfidf
                              : ir::Weighting::kRawFrequency,
            /*normalize=*/true);
        double sum = 0.0;
        int pairs = 0;
        for (size_t i = 0; i < weighted.size(); ++i) {
          for (size_t j = i + 1; j < weighted.size(); ++j) {
            sum += ir::CosineNormalized(weighted[i], weighted[j]);
            ++pairs;
          }
        }
        rs.intra_similarity = pairs > 0 ? sum / pairs : 1.0;
        return rs;
      },
      options.threads);
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedSubtreeSet& a, const RankedSubtreeSet& b) {
              return a.intra_similarity < b.intra_similarity;
            });
  return ranked;
}

}  // namespace thor::core
