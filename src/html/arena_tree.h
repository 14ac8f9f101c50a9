#ifndef THOR_HTML_ARENA_TREE_H_
#define THOR_HTML_ARENA_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/html/tag_table.h"
#include "src/util/arena.h"
#include "src/util/strings.h"

namespace thor::html {

/// Index of a node within its ArenaTree: insertion order, parents before
/// children. The root is always node 0.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One name="value" attribute from a start tag. Names are lowercased;
/// values are entity-decoded.
struct Attribute {
  std::string name;
  std::string value;
};

/// One node of an ArenaTree: a tag node (labeled by its start-tag name) or
/// a content leaf (labeled by its character data), the paper's two node
/// kinds. Fixed-size record; variable-size data (content text, path-symbol
/// strings) lives in the tree's arena. Children hang off
/// first_child/next_sibling links in document order, so no per-node vector
/// is ever allocated.
struct ArenaNode {
  NodeId parent = kInvalidNode;
  NodeId first_child = kInvalidNode;
  NodeId last_child = kInvalidNode;
  NodeId next_sibling = kInvalidNode;
  /// Interned tag for tag nodes; -1 for content nodes.
  TagId tag = -1;
  /// Number of direct children (tag and content).
  int32_t fanout = 0;
  /// Root has depth 0; assigned at insertion (parents precede children).
  int32_t depth = 0;
  /// Subtree aggregates (this node included), filled by FinalizeDerived().
  int32_t subtree_size = 1;
  int32_t content_length = 0;
  /// Page-local id of this node's root->node tag path (tag nodes only).
  /// Two nodes share a path_id iff they have the same tag chain, so path
  /// comparisons within a page are u32 compares.
  uint32_t path_id = 0;
  /// Whitespace-collapsed character data (content nodes); arena-backed.
  const char* text_data = nullptr;
  uint32_t text_size = 0;

  bool is_tag() const { return tag >= 0; }
  std::string_view text() const { return {text_data, text_size}; }
};

/// The one start-tag attribute scanner. Starts just past the tag name and
/// stops after the closing '>' (or at end of input), calling
/// `sink(name, raw_value)` once per attribute in source order: the name in
/// its source casing, the value with quotes stripped but entities still
/// encoded (empty for a valueless attribute). Sets *self_closing on "/>"
/// and returns the position after the tag. Every byte it looks at lies
/// before that position, so rescanning exactly the consumed span replays
/// the same attributes.
template <typename Sink>
size_t ScanAttributes(std::string_view input, size_t pos, bool* self_closing,
                      Sink&& sink) {
  while (pos < input.size()) {
    while (pos < input.size() && IsAsciiSpace(input[pos])) ++pos;
    if (pos >= input.size()) break;
    char c = input[pos];
    if (c == '>') return pos + 1;
    if (c == '/') {
      ++pos;
      if (pos < input.size() && input[pos] == '>') {
        *self_closing = true;
        return pos + 1;
      }
      continue;  // stray '/': skip
    }
    size_t name_start = pos;
    while (pos < input.size() && input[pos] != '=' && input[pos] != '>' &&
           input[pos] != '/' && !IsAsciiSpace(input[pos])) {
      ++pos;
    }
    if (pos == name_start) {  // stray byte such as '"': skip it
      ++pos;
      continue;
    }
    std::string_view name = input.substr(name_start, pos - name_start);
    std::string_view value;
    while (pos < input.size() && IsAsciiSpace(input[pos])) ++pos;
    if (pos < input.size() && input[pos] == '=') {
      ++pos;
      while (pos < input.size() && IsAsciiSpace(input[pos])) ++pos;
      if (pos < input.size() && (input[pos] == '"' || input[pos] == '\'')) {
        char quote = input[pos++];
        size_t value_start = pos;
        while (pos < input.size() && input[pos] != quote) ++pos;
        value = input.substr(value_start, pos - value_start);
        if (pos < input.size()) ++pos;  // closing quote
      } else {
        size_t value_start = pos;
        while (pos < input.size() && !IsAsciiSpace(input[pos]) &&
               input[pos] != '>') {
          ++pos;
        }
        value = input.substr(value_start, pos - value_start);
      }
    }
    sink(name, value);
  }
  return pos;
}

/// \brief The page tag tree (the paper's page model, Section 2): the one
/// tree that learning, labeling, evaluation and serving all read.
///
/// Only HotParser builds one. Inside a HotParser it is scratch that is
/// refilled per page: node records live in a capacity-retaining vector,
/// text and path strings in a bump Arena, and the path-intern table keeps
/// its buckets across pages, so after a warm-up page parsing touches the
/// heap zero times. Attribute bytes are not copied there: each start tag
/// that carries any records one (node, byte span) view into the parsed
/// input, read only by Attributes()/AttributeValue().
///
/// Copying one (ParseHtml, core::Page, deepweb::LabeledPage) yields an
/// immutable, page-sized tree: the node records, plus one exactly-sized
/// block holding the content text, the path strings and the attribute
/// bytes, so the copy no longer depends on the input. Node ids, derived
/// fields and every query result are the same as the source's. Moves keep
/// every view valid.
///
/// Signature building is fused into construction: the dense per-tag
/// occurrence counts and the distinct-tag list are maintained as tags are
/// added, and they are the page's tag signature (TagCountVector).
///
/// Not thread-safe to build; a finished tree is safe to read from any
/// number of threads.
class ArenaTree {
 public:
  /// A lone <html> root.
  ArenaTree() { Reset(); }

  /// Page-sized, self-contained copy (see the class comment).
  ArenaTree(const ArenaTree& other);
  ArenaTree& operator=(const ArenaTree& other);
  ArenaTree(ArenaTree&&) noexcept = default;
  ArenaTree& operator=(ArenaTree&&) noexcept = default;

  NodeId root() const { return 0; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  const ArenaNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }

  const Arena& arena() const { return arena_; }

  int Fanout(NodeId id) const { return node(id).fanout; }
  int Depth(NodeId id) const { return node(id).depth; }
  int SubtreeSize(NodeId id) const { return node(id).subtree_size; }

  /// Largest fanout of any node in the tree (cluster-ranking feature).
  int MaxFanout() const;

  /// The direct children of a node, in document order, for range-for.
  class ChildRange {
   public:
    class Iterator {
     public:
      Iterator(const ArenaTree* tree, NodeId id) : tree_(tree), id_(id) {}
      NodeId operator*() const { return id_; }
      Iterator& operator++() {
        id_ = tree_->node(id_).next_sibling;
        return *this;
      }
      bool operator!=(const Iterator& other) const { return id_ != other.id_; }

     private:
      const ArenaTree* tree_;
      NodeId id_;
    };
    ChildRange(const ArenaTree* tree, NodeId parent)
        : tree_(tree), parent_(parent) {}
    Iterator begin() const {
      return {tree_, tree_->node(parent_).first_child};
    }
    Iterator end() const { return {tree_, kInvalidNode}; }

   private:
    const ArenaTree* tree_;
    NodeId parent_;
  };
  ChildRange Children(NodeId id) const { return {this, id}; }

  /// The node after `id` in a preorder walk of the subtree rooted at `top`
  /// (kInvalidNode when the walk is done). Sibling links keep insertion
  /// order, so this is document order.
  NodeId NextPreorder(NodeId id, NodeId top) const;

  /// All node ids in the subtree rooted at `id`, preorder, including `id`.
  std::vector<NodeId> SubtreeNodes(NodeId id) const;

  /// All node ids in preorder (root first).
  std::vector<NodeId> Preorder() const { return SubtreeNodes(root()); }

  /// True if `ancestor` is `id` or a proper ancestor of `id`.
  bool IsAncestorOrSelf(NodeId ancestor, NodeId id) const;

  /// Path-symbol string for an interned path id.
  std::string_view path(uint32_t path_id) const {
    return paths_[static_cast<size_t>(path_id)];
  }
  uint32_t path_count() const { return static_cast<uint32_t>(paths_.size()); }

  /// One `TagPathSymbol` letter per tag on the path root -> id, e.g. "abm"
  /// for html/body/table: the paper's fixed-length-q simplification
  /// (q = 1) used by the subtree shape distance. A content node has its
  /// parent's path.
  std::string_view PathSymbols(NodeId id) const;

  /// Human-readable XPath-style address, e.g. "html/body/table[3]".
  /// Sibling indices are 1-based among same-tag siblings and printed only
  /// when the node has same-tag siblings.
  std::string PathString(NodeId id) const;

  /// Resolves a PathString produced by this tree back to a node, or
  /// kInvalidNode if no such node exists.
  NodeId ResolvePath(std::string_view path) const;

  /// Appends the subtree's content text, space-joined in document order,
  /// to `out`. A separator precedes each text iff `out` is non-empty, so
  /// appending several subtrees into one buffer joins them with spaces.
  void AppendSubtreeText(NodeId id, std::string* out) const;
  std::string SubtreeText(NodeId id) const {
    std::string out;
    AppendSubtreeText(id, &out);
    return out;
  }

  /// Occurrences of `tag` on the page (0 when absent).
  int32_t TagCountOf(TagId tag) const {
    return static_cast<size_t>(tag) < tag_counts_.size()
               ? tag_counts_[static_cast<size_t>(tag)]
               : 0;
  }
  /// Distinct tags on the page, in first-occurrence order.
  const std::vector<TagId>& distinct_tags() const { return distinct_tags_; }
  /// Number of tag nodes (the root and synthesized head/body included).
  int TagNodeCount() const;

  /// Start-tag attributes of tag node `id`, in source order (several start
  /// tags can merge into one node, e.g. repeated <body> tags). Names are
  /// lowercased and values entity-decoded.
  std::vector<Attribute> Attributes(NodeId id) const;
  /// Value of the first attribute `name` (lowercase) on `id`, or empty.
  std::string AttributeValue(NodeId id, std::string_view name) const;

 private:
  friend class HotParser;

  /// Attribute bytes of one handled start tag and the node they belong to.
  struct AttributeSpan {
    NodeId node;
    std::string_view bytes;
  };

  /// Clears to a fresh single-root (<html>) tree, retaining all capacity.
  void Reset();
  /// Appends a tag node under `parent`: links it as the last child, assigns
  /// depth and interned path id, and bumps the fused tag counts.
  NodeId AddTag(NodeId parent, TagId tag);
  /// Appends a content leaf under `parent`. `collapsed` must already be
  /// whitespace-collapsed, non-empty, and arena-resident (the parser's
  /// fused decode+collapse writes it there).
  NodeId AddContent(NodeId parent, std::string_view collapsed);
  /// Records the attribute bytes of a start tag handled into `node`; the
  /// bytes must outlive the tree or its next copy.
  void AddAttributes(NodeId node, std::string_view bytes) {
    attributes_.push_back({node, bytes});
  }
  /// Computes subtree_size / content_length (depth is set at insertion).
  void FinalizeDerived();
  Arena& mutable_arena() { return arena_; }

  uint32_t InternPath(uint32_t parent_path, TagId tag);
  void Link(NodeId parent, NodeId id);
  void CountTag(TagId tag);

  Arena arena_;
  std::vector<ArenaNode> nodes_;
  /// Page-local path table: id -> symbol string, plus the
  /// (parent_path, tag) -> id transition map that grows it (parser only).
  std::vector<std::string_view> paths_;
  std::unordered_map<uint64_t, uint32_t> path_transitions_;
  /// Dense per-tag occurrence counts (indexed by process-wide TagId) and
  /// the list of tags actually present (so Reset zeroes only those).
  std::vector<int32_t> tag_counts_;
  std::vector<TagId> distinct_tags_;
  /// One entry per handled start tag with attributes, in source order.
  std::vector<AttributeSpan> attributes_;
};

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_TREE_H_
