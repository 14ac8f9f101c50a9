#include "src/core/signature_builder.h"

#include <unordered_map>

namespace thor::core {

ir::SparseVector TagCountVector(const html::ArenaTree& tree) {
  std::vector<ir::VectorEntry> entries;
  entries.reserve(tree.distinct_tags().size());
  for (html::TagId tag : tree.distinct_tags()) {
    entries.push_back({tag, static_cast<double>(tree.TagCountOf(tag))});
  }
  // FromPairs sorts by id and computes the norm over the sorted entries.
  return ir::SparseVector::FromPairs(std::move(entries));
}

ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 html::NodeId root, ir::Vocabulary* vocab,
                                 const text::TermOptions& options) {
  std::unordered_map<int32_t, int> counts;
  for (html::NodeId id = root; id != html::kInvalidNode;
       id = tree.NextPreorder(id, root)) {
    const html::ArenaNode& n = tree.node(id);
    if (n.is_tag()) continue;
    for (const std::string& term : text::ExtractTerms(n.text(), options)) {
      ++counts[vocab->Intern(term)];
    }
  }
  return ir::SparseVector::FromCounts(counts);
}

ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 ir::Vocabulary* vocab,
                                 const text::TermOptions& options) {
  return TermCountVector(tree, tree.root(), vocab, options);
}

int DistinctTermCount(const html::ArenaTree& tree) {
  return text::CountDistinctTerms(tree.SubtreeText(tree.root()));
}

int DistinctTagCount(const html::ArenaTree& tree) {
  return static_cast<int>(tree.distinct_tags().size());
}

}  // namespace thor::core
