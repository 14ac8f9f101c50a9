#include "src/html/arena_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/html/entities.h"

namespace thor::html {

ArenaTree::ArenaTree(const ArenaTree& other)
    : nodes_(other.nodes_),
      paths_(other.paths_),
      distinct_tags_(other.distinct_tags_),
      attributes_(other.attributes_) {
  // A parser's count table is as long as the largest tag id it ever saw;
  // keep only the prefix this page uses.
  TagId max_tag = 0;
  for (TagId tag : distinct_tags_) max_tag = std::max(max_tag, tag);
  tag_counts_.assign(other.tag_counts_.begin(),
                     other.tag_counts_.begin() + max_tag + 1);

  // Every byte the views point at goes into one exactly-sized block.
  size_t bytes = 0;
  for (const ArenaNode& n : nodes_) bytes += n.text_size;
  for (std::string_view p : paths_) bytes += p.size();
  for (const AttributeSpan& span : attributes_) bytes += span.bytes.size();
  arena_ = Arena(bytes);
  char* out = static_cast<char*>(arena_.Allocate(bytes, 1));
  auto own = [&out](std::string_view s) {
    if (!s.empty()) std::memcpy(out, s.data(), s.size());
    std::string_view owned(out, s.size());
    out += s.size();
    return owned;
  };
  for (ArenaNode& n : nodes_) {
    if (!n.is_tag()) n.text_data = own(n.text()).data();
  }
  for (std::string_view& p : paths_) p = own(p);
  for (AttributeSpan& span : attributes_) span.bytes = own(span.bytes);
}

ArenaTree& ArenaTree::operator=(const ArenaTree& other) {
  if (this != &other) *this = ArenaTree(other);
  return *this;
}

void ArenaTree::Reset() {
  arena_.Reset();
  nodes_.clear();
  paths_.clear();
  path_transitions_.clear();
  for (TagId tag : distinct_tags_) tag_counts_[static_cast<size_t>(tag)] = 0;
  distinct_tags_.clear();
  attributes_.clear();

  // Root <html> node. Its path is the single html symbol, path id 0 by
  // construction; the symbol is static so a lone root allocates no block.
  static const char kRootSymbol = TagPathSymbol(Tag::kHtml);
  paths_.push_back(std::string_view{&kRootSymbol, 1});

  ArenaNode root;
  root.tag = Tag::kHtml;
  root.path_id = 0;
  nodes_.push_back(root);
  CountTag(Tag::kHtml);
}

uint32_t ArenaTree::InternPath(uint32_t parent_path, TagId tag) {
  uint64_t key =
      (uint64_t{parent_path} << 32) | static_cast<uint32_t>(tag);
  auto it = path_transitions_.find(key);
  if (it != path_transitions_.end()) return it->second;
  std::string_view parent = paths_[static_cast<size_t>(parent_path)];
  char* data = static_cast<char*>(arena_.Allocate(parent.size() + 1, 1));
  std::memcpy(data, parent.data(), parent.size());
  data[parent.size()] = TagPathSymbol(tag);
  uint32_t id = static_cast<uint32_t>(paths_.size());
  paths_.push_back(std::string_view{data, parent.size() + 1});
  path_transitions_.emplace(key, id);
  return id;
}

void ArenaTree::Link(NodeId parent, NodeId id) {
  ArenaNode& p = nodes_[static_cast<size_t>(parent)];
  if (p.first_child == kInvalidNode) {
    p.first_child = id;
  } else {
    nodes_[static_cast<size_t>(p.last_child)].next_sibling = id;
  }
  p.last_child = id;
  ++p.fanout;
}

void ArenaTree::CountTag(TagId tag) {
  size_t index = static_cast<size_t>(tag);
  if (index >= tag_counts_.size()) tag_counts_.resize(index + 1, 0);
  if (tag_counts_[index]++ == 0) distinct_tags_.push_back(tag);
}

NodeId ArenaTree::AddTag(NodeId parent, TagId tag) {
  assert(parent >= 0 && parent < node_count());
  ArenaNode n;
  n.parent = parent;
  n.tag = tag;
  n.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  n.path_id = InternPath(nodes_[static_cast<size_t>(parent)].path_id, tag);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  Link(parent, id);
  CountTag(tag);
  return id;
}

NodeId ArenaTree::AddContent(NodeId parent, std::string_view collapsed) {
  assert(parent >= 0 && parent < node_count());
  assert(!collapsed.empty());
  ArenaNode n;
  n.parent = parent;
  n.depth = nodes_[static_cast<size_t>(parent)].depth + 1;
  n.text_data = collapsed.data();
  n.text_size = static_cast<uint32_t>(collapsed.size());
  n.content_length = static_cast<int32_t>(collapsed.size());
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(n);
  Link(parent, id);
  return id;
}

void ArenaTree::FinalizeDerived() {
  // Parents precede children, so one backward pass accumulates subtree
  // aggregates. Depth and per-node content_length were assigned at
  // insertion.
  for (size_t i = nodes_.size(); i-- > 1;) {
    const ArenaNode& n = nodes_[i];
    ArenaNode& p = nodes_[static_cast<size_t>(n.parent)];
    p.subtree_size += n.subtree_size;
    p.content_length += n.content_length;
  }
}

int ArenaTree::MaxFanout() const {
  int best = 0;
  for (const ArenaNode& n : nodes_) best = std::max(best, n.fanout);
  return best;
}

int ArenaTree::TagNodeCount() const {
  int count = 0;
  for (TagId tag : distinct_tags_) count += TagCountOf(tag);
  return count;
}

NodeId ArenaTree::NextPreorder(NodeId id, NodeId top) const {
  if (node(id).first_child != kInvalidNode) return node(id).first_child;
  for (NodeId cur = id; cur != top; cur = node(cur).parent) {
    if (node(cur).next_sibling != kInvalidNode) return node(cur).next_sibling;
  }
  return kInvalidNode;
}

std::vector<NodeId> ArenaTree::SubtreeNodes(NodeId id) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(node(id).subtree_size));
  for (NodeId cur = id; cur != kInvalidNode; cur = NextPreorder(cur, id)) {
    out.push_back(cur);
  }
  return out;
}

bool ArenaTree::IsAncestorOrSelf(NodeId ancestor, NodeId id) const {
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

std::string_view ArenaTree::PathSymbols(NodeId id) const {
  const ArenaNode& n = node(id);
  uint32_t pid = n.is_tag() ? n.path_id : node(n.parent).path_id;
  return paths_[static_cast<size_t>(pid)];
}

std::string ArenaTree::PathString(NodeId id) const {
  std::vector<NodeId> chain;
  for (NodeId cur = id; cur != kInvalidNode; cur = node(cur).parent) {
    if (node(cur).is_tag()) chain.push_back(cur);
  }
  std::reverse(chain.begin(), chain.end());
  std::string out;
  for (NodeId n : chain) {
    if (!out.empty()) out.push_back('/');
    out.append(TagName(node(n).tag));
    NodeId parent = node(n).parent;
    if (parent != kInvalidNode) {
      int same_tag = 0;
      int index = 0;
      for (NodeId sibling : Children(parent)) {
        const ArenaNode& s = node(sibling);
        if (s.is_tag() && s.tag == node(n).tag) {
          ++same_tag;
          if (sibling == n) index = same_tag;
        }
      }
      if (same_tag > 1) {
        out.push_back('[');
        out.append(std::to_string(index));
        out.push_back(']');
      }
    }
  }
  return out;
}

NodeId ArenaTree::ResolvePath(std::string_view path) const {
  std::vector<std::string> parts = Split(std::string(path), '/');
  if (parts.empty()) return kInvalidNode;
  NodeId cur = kInvalidNode;
  for (size_t level = 0; level < parts.size(); ++level) {
    std::string_view part = parts[level];
    int want_index = 0;  // 0 = unindexed (first same-tag match)
    std::string_view name = part;
    size_t bracket = part.find('[');
    if (bracket != std::string_view::npos && part.back() == ']') {
      name = part.substr(0, bracket);
      int parsed = 0;
      for (size_t i = bracket + 1; i + 1 < part.size(); ++i) {
        if (!IsAsciiDigit(part[i])) return kInvalidNode;
        parsed = parsed * 10 + (part[i] - '0');
      }
      want_index = parsed;
    }
    TagId tag = FindTag(name);
    if (tag < 0) return kInvalidNode;
    if (level == 0) {
      if (node(root()).tag != tag) return kInvalidNode;
      cur = root();
      continue;
    }
    NodeId next = kInvalidNode;
    int seen = 0;
    for (NodeId child : Children(cur)) {
      const ArenaNode& c = node(child);
      if (c.is_tag() && c.tag == tag) {
        ++seen;
        if (want_index == 0 || seen == want_index) {
          next = child;
          break;
        }
      }
    }
    if (next == kInvalidNode) return kInvalidNode;
    cur = next;
  }
  return cur;
}

void ArenaTree::AppendSubtreeText(NodeId id, std::string* out) const {
  for (NodeId cur = id; cur != kInvalidNode; cur = NextPreorder(cur, id)) {
    const ArenaNode& n = node(cur);
    if (!n.is_tag()) {
      if (!out->empty()) out->push_back(' ');
      out->append(n.text_data, n.text_size);
    }
  }
}

std::vector<Attribute> ArenaTree::Attributes(NodeId id) const {
  std::vector<Attribute> out;
  for (const AttributeSpan& span : attributes_) {
    if (span.node != id) continue;
    bool self_closing = false;
    ScanAttributes(span.bytes, 0, &self_closing,
                   [&](std::string_view name, std::string_view value) {
                     out.push_back({AsciiLower(name), DecodeEntities(value)});
                   });
  }
  return out;
}

std::string ArenaTree::AttributeValue(NodeId id, std::string_view name) const {
  for (Attribute& attribute : Attributes(id)) {
    if (attribute.name == name) return std::move(attribute.value);
  }
  return {};
}

}  // namespace thor::html
