#include "src/html/arena_tree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace thor::html {

void ArenaTree::Reset() {
  arena_.Reset();
  nodes_.clear();
  paths_.clear();
  path_transitions_.clear();
  for (TagId tag : distinct_tags_) tag_counts_[static_cast<size_t>(tag)] = 0;
  distinct_tags_.clear();

  // Root <html> node (mirrors TagTree's constructor). Its path is the
  // single html symbol; path id 0 by construction.
  char* symbol = static_cast<char*>(arena_.Allocate(1, 1));
  *symbol = TagPathSymbol(Tag::kHtml);
  paths_.push_back(std::string_view{symbol, 1});

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
  // Parents precede children (same invariant as TagTree), so one backward
  // pass accumulates subtree aggregates. Depth and per-node content_length
  // were assigned at insertion.
  for (size_t i = nodes_.size(); i-- > 1;) {
    const ArenaNode& n = nodes_[i];
    ArenaNode& p = nodes_[static_cast<size_t>(n.parent)];
    p.subtree_size += n.subtree_size;
    p.content_length += n.content_length;
  }
}

std::string_view ArenaTree::PathSymbols(NodeId id) const {
  const ArenaNode& n = node(id);
  // Content leaves hang off a tag parent; TagTree::PathTags skips them, so
  // their path equals the parent's.
  uint32_t pid = n.is_tag() ? n.path_id
                            : node(n.parent).path_id;
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
      for (NodeId sibling = node(parent).first_child;
           sibling != kInvalidNode; sibling = node(sibling).next_sibling) {
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

void ArenaTree::AppendSubtreeText(NodeId id, std::string* out) const {
  // Link-following preorder: identical visit order to TagTree::SubtreeText's
  // stack walk (sibling links preserve insertion order).
  NodeId cur = id;
  while (true) {
    const ArenaNode& n = node(cur);
    if (!n.is_tag()) {
      if (!out->empty()) out->push_back(' ');
      out->append(n.text_data, n.text_size);
    }
    if (n.first_child != kInvalidNode) {
      cur = n.first_child;
      continue;
    }
    while (cur != id && node(cur).next_sibling == kInvalidNode) {
      cur = node(cur).parent;
    }
    if (cur == id) break;
    cur = node(cur).next_sibling;
  }
}

}  // namespace thor::html
