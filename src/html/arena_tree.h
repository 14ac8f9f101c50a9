#ifndef THOR_HTML_ARENA_TREE_H_
#define THOR_HTML_ARENA_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/html/tag_table.h"
#include "src/html/tag_tree.h"
#include "src/util/arena.h"

namespace thor::html {

/// One node of an ArenaTree. Fixed-size record; variable-size data (content
/// text, path-symbol strings) lives in the tree's arena. Children hang off
/// first_child/next_sibling links in document order, so no per-node vector
/// is ever allocated.
struct ArenaNode {
  NodeId parent = kInvalidNode;
  NodeId first_child = kInvalidNode;
  NodeId last_child = kInvalidNode;
  NodeId next_sibling = kInvalidNode;
  /// Interned tag for tag nodes; -1 for content nodes.
  TagId tag = -1;
  /// Number of direct children (tag and content), like TagTree::Fanout.
  int32_t fanout = 0;
  /// Root has depth 0; assigned at insertion (parents precede children).
  int32_t depth = 0;
  /// Subtree aggregates, filled by FinalizeDerived().
  int32_t subtree_size = 1;
  int32_t content_length = 0;
  /// Page-local id of this node's root->node tag path (tag nodes only).
  /// Two nodes share a path_id iff they have the same tag chain, which is
  /// exactly when their TagTree::PathSymbols strings are equal — so the
  /// extraction hot path compares u32 ids where the TagTree path compares
  /// strings.
  uint32_t path_id = 0;
  /// Whitespace-collapsed character data (content nodes); arena-backed.
  const char* text_data = nullptr;
  uint32_t text_size = 0;

  bool is_tag() const { return tag >= 0; }
  std::string_view text() const { return {text_data, text_size}; }
};

/// \brief Zero-allocation-steady-state tag tree for the extraction hot path.
///
/// HotParser builds it; HotParser::ToTagTree copies it into the TagTree
/// that learning reads, keeping node ids (insertion order), derived fields
/// and path/text query results — tests/hotpath_diff_test.cc and
/// tests/html_mutation_test.cc hold the two byte-equal over whole deepweb
/// fleets and their mutants. Mechanically everything is reused: node records
/// live in a capacity-retaining vector, text and path strings in a bump
/// Arena, and the per-page path-intern table keeps its buckets across
/// Reset(). After a warm-up page, parsing touches the heap zero times.
///
/// Signature building is fused into construction: AddTag maintains the
/// dense per-tag occurrence counts and the distinct-tag list that
/// signature_builder::TagCountVector would otherwise recompute with a
/// preorder walk and a hash map.
///
/// Not thread-safe; one tree (inside one HotParser) per worker thread.
class ArenaTree {
 public:
  ArenaTree() { Reset(); }

  ArenaTree(const ArenaTree&) = delete;
  ArenaTree& operator=(const ArenaTree&) = delete;

  /// Clears to a fresh single-root (<html>) tree, retaining all capacity.
  void Reset();

  NodeId root() const { return 0; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const ArenaNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

  /// Appends a tag node under `parent`: links it as the last child, assigns
  /// depth and interned path id, and bumps the fused tag counts.
  NodeId AddTag(NodeId parent, TagId tag);

  /// Appends a content leaf under `parent`. `collapsed` must already be
  /// whitespace-collapsed, non-empty, and arena-resident (the parser's
  /// fused decode+collapse writes it there).
  NodeId AddContent(NodeId parent, std::string_view collapsed);

  /// Computes subtree_size / content_length (depth is set at insertion).
  void FinalizeDerived();

  int Fanout(NodeId id) const { return node(id).fanout; }
  int Depth(NodeId id) const { return node(id).depth; }
  int SubtreeSize(NodeId id) const { return node(id).subtree_size; }

  /// Path-symbol string for an interned path id (equals what
  /// TagTree::PathSymbols returns for any node carrying this id).
  std::string_view path(uint32_t path_id) const {
    return paths_[static_cast<size_t>(path_id)];
  }
  uint32_t path_count() const { return static_cast<uint32_t>(paths_.size()); }

  /// TagTree::PathSymbols equivalent (content nodes defer to their parent
  /// chain, exactly like TagTree::PathTags, which skips content nodes).
  std::string_view PathSymbols(NodeId id) const;

  /// TagTree::PathString equivalent: "html/body/table[3]"-style address
  /// with 1-based indices printed only among same-tag siblings.
  std::string PathString(NodeId id) const;

  /// TagTree::SubtreeText equivalent, appending into a caller-owned buffer
  /// (space-joined content text in document order). `out` need not be
  /// empty; separators follow SubtreeText's "separator iff out non-empty"
  /// rule, so pass a fresh buffer for byte-parity with it.
  void AppendSubtreeText(NodeId id, std::string* out) const;

  /// Fused whole-page tag counts: occurrences of `tag` (0 when absent),
  /// equal to signature_builder::TagCountVector(tree).At(tag).
  int32_t TagCountOf(TagId tag) const {
    return static_cast<size_t>(tag) < tag_counts_.size()
               ? tag_counts_[static_cast<size_t>(tag)]
               : 0;
  }
  /// Distinct tags on the page, in first-occurrence order.
  const std::vector<TagId>& distinct_tags() const { return distinct_tags_; }

 private:
  uint32_t InternPath(uint32_t parent_path, TagId tag);
  void Link(NodeId parent, NodeId id);
  void CountTag(TagId tag);

  Arena arena_;
  std::vector<ArenaNode> nodes_;
  /// Page-local path table: id -> arena-resident symbol string, plus the
  /// (parent_path, tag) -> id transition map that grows it.
  std::vector<std::string_view> paths_;
  std::unordered_map<uint64_t, uint32_t> path_transitions_;
  /// Dense per-tag occurrence counts (indexed by process-wide TagId) and
  /// the list of tags actually present (so Reset zeroes only those).
  std::vector<int32_t> tag_counts_;
  std::vector<TagId> distinct_tags_;
};

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_TREE_H_
