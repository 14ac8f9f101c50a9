#ifndef THOR_CORE_SUBTREE_FILTER_H_
#define THOR_CORE_SUBTREE_FILTER_H_

#include <vector>

#include "src/html/arena_tree.h"

namespace thor::core {

/// Single-page analysis knobs (paper Section 3.2.1).
struct SubtreeFilterOptions {
  /// Minimum bytes of content text a candidate subtree must contain
  /// (rule 1: "remove all subtrees that contain no content").
  int min_content_length = 1;
  /// Minimum nodes in a candidate subtree.
  int min_subtree_nodes = 2;
  /// Rule 2 (minimality): a subtree is a non-minimal wrapper — and is
  /// dropped — when a single tag child holds at least this fraction of its
  /// content. 1.0 recovers the strict "equivalent content" reading; the
  /// default 0.8 also prunes wrappers that add only a heading or an ad
  /// around the real region.
  double wrapper_content_fraction = 0.8;
  /// Rule 3 (see DESIGN.md interpretation note): a candidate's root must
  /// branch (fanout >= 2) or own a direct content child; together with the
  /// minimality rule this pushes candidates to the smallest
  /// content-complete subtrees.
  bool require_branching = true;
  /// Skip subtrees rooted at inline formatting elements (b, i, span, ...):
  /// a QA-Pagelet region is a block construct.
  bool skip_inline_roots = true;
};

/// \brief Phase-II single-page analysis: the candidate subtrees of one
/// page, in document order, written to `*out` (cleared first).
///
/// Implements the paper's three filtering rules: drop content-free
/// subtrees, drop non-minimal subtrees whose entire content lives in a
/// single child (the child is the better candidate), and require local
/// branching at the root. The page root itself is never a candidate.
/// Learning and HotExtractor::Locate both call this; serving passes a
/// buffer it reuses, so the scan allocates nothing in steady state.
void CandidateSubtrees(const html::ArenaTree& tree,
                       const SubtreeFilterOptions& options,
                       std::vector<html::NodeId>* out);

/// Convenience form returning a fresh vector.
inline std::vector<html::NodeId> CandidateSubtrees(
    const html::ArenaTree& tree, const SubtreeFilterOptions& options = {}) {
  std::vector<html::NodeId> out;
  CandidateSubtrees(tree, options, &out);
  return out;
}

}  // namespace thor::core

#endif  // THOR_CORE_SUBTREE_FILTER_H_
