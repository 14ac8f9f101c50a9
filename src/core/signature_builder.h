#ifndef THOR_CORE_SIGNATURE_BUILDER_H_
#define THOR_CORE_SIGNATURE_BUILDER_H_

#include <string>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/ir/sparse_vector.h"
#include "src/ir/vocabulary.h"
#include "src/text/term_tokenizer.h"

namespace thor::core {

/// Raw tag-tree signature (paper Section 3.1.2): one dimension per distinct
/// tag, weighted by its occurrence count in the whole page. Dimension ids
/// are process-wide html TagIds, so vectors from different pages align.
/// Read from the counts the tree fused into its construction (no walk).
ir::SparseVector TagCountVector(const html::ArenaTree& tree);

/// Raw content signature: one dimension per distinct (stemmed) content
/// term in the subtree at `root`, weighted by occurrence count. Terms are
/// interned into `*vocab` so vectors from the same collection align.
ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 html::NodeId root, ir::Vocabulary* vocab,
                                 const text::TermOptions& options = {});

/// Whole-page content signature.
ir::SparseVector TermCountVector(const html::ArenaTree& tree,
                                 ir::Vocabulary* vocab,
                                 const text::TermOptions& options = {});

/// Number of distinct content terms on the page (cluster-ranking feature;
/// also the paper's "22.3 distinct tags vs 184.0 distinct terms" corpus
/// statistic).
int DistinctTermCount(const html::ArenaTree& tree);

/// Number of distinct tags on the page.
int DistinctTagCount(const html::ArenaTree& tree);

}  // namespace thor::core

#endif  // THOR_CORE_SIGNATURE_BUILDER_H_
