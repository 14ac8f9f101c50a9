#include "src/core/subtree_filter.h"

namespace thor::core {

void CandidateSubtrees(const html::ArenaTree& tree,
                       const SubtreeFilterOptions& options,
                       std::vector<html::NodeId>* out) {
  out->clear();
  const html::NodeId root = tree.root();
  // The page root itself is never a candidate.
  for (html::NodeId id = tree.NextPreorder(root, root);
       id != html::kInvalidNode; id = tree.NextPreorder(id, root)) {
    const html::ArenaNode& n = tree.node(id);
    if (!n.is_tag()) continue;
    if (n.tag == html::Tag::kHead || n.tag == html::Tag::kBody) continue;
    if (options.skip_inline_roots && html::IsInlineTag(n.tag)) continue;
    // Rule 1: must contain content.
    if (n.content_length < options.min_content_length) continue;
    if (n.subtree_size < options.min_subtree_nodes) continue;
    // Rule 2 (minimality): if one child subtree holds (nearly) all of this
    // node's content, this node is an equivalent-but-larger wrapper — the
    // child is the better candidate, so skip this node.
    // Inline children (<a>, <b>, <font>, ...) do not make their parent a
    // wrapper: the minimal *block* subtree is the right candidate, and
    // inline elements are themselves skipped as candidate roots.
    bool wrapper = false;
    double threshold =
        options.wrapper_content_fraction * n.content_length;
    for (html::NodeId child : tree.Children(id)) {
      const html::ArenaNode& c = tree.node(child);
      if (c.is_tag() && !html::IsInlineTag(c.tag) &&
          c.content_length >= threshold) {
        wrapper = true;
        break;
      }
    }
    if (wrapper) continue;
    // Rule 3: require local branching or direct content. Inline children
    // are transparent here: a <dt> whose text lives inside an <a> still
    // "owns" that content, because inline elements are never candidates
    // themselves.
    if (options.require_branching && n.fanout < 2) {
      bool has_direct_content = false;
      for (html::NodeId child : tree.Children(id)) {
        const html::ArenaNode& c = tree.node(child);
        if (!c.is_tag() ||
            (html::IsInlineTag(c.tag) && c.content_length > 0)) {
          has_direct_content = true;
          break;
        }
      }
      if (!has_direct_content) continue;
    }
    out->push_back(id);
  }
}

}  // namespace thor::core
