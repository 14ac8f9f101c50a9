#include "src/html/parser.h"

#include "src/html/arena_parser.h"
#include "src/util/strings.h"

namespace thor::html {

TagTree ParseHtml(std::string_view input, const ParseOptions& options) {
  // One parser per thread keeps its arena and tables warm across calls.
  thread_local HotParser parser;
  parser.Parse(input, options);
  return parser.ToTagTree();
}

namespace {

/// True when the input ends inside unterminated markup: the last '<' that
/// plausibly opens a tag/comment has no closing '>' after it. Quote cut
/// mid-attribute-value is a special case of this (the '>' is inside the
/// open string literal or missing entirely).
bool EndsInsideMarkup(std::string_view input) {
  size_t lt = input.rfind('<');
  if (lt == std::string_view::npos || lt + 1 >= input.size()) {
    // A bare trailing '<' is literal text, not truncated markup.
    return false;
  }
  char next = input[lt + 1];
  bool plausible_markup = IsAsciiAlpha(next) || next == '/' || next == '!' ||
                          next == '?';
  return plausible_markup && input.find('>', lt) == std::string_view::npos;
}

}  // namespace

Result<TagTree> ParseHtmlChecked(std::string_view input,
                                 const ParseOptions& options,
                                 ParseDiagnostics* diagnostics) {
  if (StripAsciiWhitespace(input).empty()) {
    return Status::ParseError("empty document");
  }
  TagTree tree = ParseHtml(input, options);
  int tag_nodes = 0;
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind == NodeKind::kTag) ++tag_nodes;
  }
  bool truncated = EndsInsideMarkup(input);
  if (diagnostics != nullptr) {
    diagnostics->truncated_markup = truncated;
    diagnostics->tag_nodes = tag_nodes;
  }
  // Root alone (nothing parsed) or root+body with no content below: the
  // document carried no analyzable structure.
  if (tree.node_count() <= 1 ||
      (tag_nodes <= 2 && tree.node_count() == tag_nodes)) {
    std::string msg = "document yields no elements";
    if (truncated) msg += " (input truncated inside markup)";
    return Status::ParseError(std::move(msg));
  }
  return tree;
}

}  // namespace thor::html
