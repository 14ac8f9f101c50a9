#ifndef THOR_TREEDIST_ZHANG_SHASHA_H_
#define THOR_TREEDIST_ZHANG_SHASHA_H_

#include <vector>

#include "src/html/arena_tree.h"

namespace thor::treedist {

/// \brief Postorder representation of an ordered labeled tree, precomputed
/// for the Zhang-Shasha algorithm.
///
/// Labels are interned tag ids; content nodes collapse to a single shared
/// label, matching how structural tree-edit similarity was used by the
/// paper's comparison baseline [23].
struct OrderedTree {
  /// Label per node, postorder.
  std::vector<int> labels;
  /// Index (postorder) of the leftmost leaf descendant of each node.
  std::vector<int> leftmost_leaf;
  /// LR-keyroots, ascending.
  std::vector<int> keyroots;

  int size() const { return static_cast<int>(labels.size()); }

  /// Builds from the subtree of `tree` rooted at `root`.
  static OrderedTree FromArenaTree(const html::ArenaTree& tree,
                                   html::NodeId root);
};

/// Zhang-Shasha ordered tree edit distance with unit insert/delete/relabel
/// costs. O(|T1| * |T2| * min-depth products) time — the few-orders-of-
/// magnitude cost gap vs. tag signatures that the paper reports is exactly
/// what bench_treeedit_vs_tag measures.
int TreeEditDistance(const OrderedTree& t1, const OrderedTree& t2);

/// Distance normalized by max node count, in [0, 1].
double NormalizedTreeEditDistance(const OrderedTree& t1,
                                  const OrderedTree& t2);

}  // namespace thor::treedist

#endif  // THOR_TREEDIST_ZHANG_SHASHA_H_
