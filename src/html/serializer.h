#ifndef THOR_HTML_SERIALIZER_H_
#define THOR_HTML_SERIALIZER_H_

#include <string>

#include "src/html/arena_tree.h"

namespace thor::html {

/// Serialization knobs.
struct SerializeOptions {
  /// Indent with two spaces per depth level and put tags on their own lines.
  bool pretty = false;
};

/// Serializes a (sub)tree back to HTML. Void elements get no end tag;
/// text and attribute values are entity-escaped. Round-tripping a parsed
/// page through Serialize+ParseHtml yields an isomorphic tree (tested).
std::string Serialize(const ArenaTree& tree, NodeId root,
                      const SerializeOptions& options = {});

/// Serializes the whole tree from its root.
std::string Serialize(const ArenaTree& tree,
                      const SerializeOptions& options = {});

}  // namespace thor::html

#endif  // THOR_HTML_SERIALIZER_H_
