#include "src/html/serializer.h"

#include "src/html/entities.h"

namespace thor::html {

namespace {

void SerializeNode(const ArenaTree& tree, NodeId id,
                   const SerializeOptions& options, int depth,
                   std::string* out) {
  const ArenaNode& n = tree.node(id);
  auto indent = [&] {
    if (options.pretty) {
      out->push_back('\n');
      out->append(static_cast<size_t>(depth) * 2, ' ');
    }
  };
  if (!n.is_tag()) {
    indent();
    out->append(EscapeText(n.text()));
    return;
  }
  indent();
  out->push_back('<');
  out->append(TagName(n.tag));
  for (const Attribute& attr : tree.Attributes(id)) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    out->append(EscapeText(attr.value));
    out->push_back('"');
  }
  out->push_back('>');
  if (IsVoidTag(n.tag)) return;
  for (NodeId child : tree.Children(id)) {
    SerializeNode(tree, child, options, depth + 1, out);
  }
  if (options.pretty && n.fanout > 0) {
    out->push_back('\n');
    out->append(static_cast<size_t>(depth) * 2, ' ');
  }
  out->append("</");
  out->append(TagName(n.tag));
  out->push_back('>');
}

}  // namespace

std::string Serialize(const ArenaTree& tree, NodeId root,
                      const SerializeOptions& options) {
  std::string out;
  SerializeNode(tree, root, options, 0, &out);
  if (options.pretty && !out.empty() && out.front() == '\n') {
    out.erase(out.begin());
  }
  return out;
}

std::string Serialize(const ArenaTree& tree, const SerializeOptions& options) {
  return Serialize(tree, tree.root(), options);
}

}  // namespace thor::html
