#ifndef THOR_HTML_PARSER_H_
#define THOR_HTML_PARSER_H_

#include <string_view>

#include "src/html/arena_tree.h"
#include "src/util/status.h"

namespace thor::html {

/// Knobs for the parser. The raw text of <script>/<style> is always
/// dropped (the tag node stays): the paper's content signatures measure
/// visible terms, and scripts/styles would pollute them.
struct ParseOptions {
  /// Cap on tree size to bound adversarial inputs, checked before each
  /// token; the token that reaches it may still add up to three nodes, and
  /// further markup is dropped (0 = unlimited).
  int max_nodes = 0;
};

/// \brief Error-tolerant HTML parser producing the paper's tag-tree model.
///
/// A rooted tree of tag nodes and content-node leaves, with start-tag
/// attributes. This is HotParser::Parse on a thread-local parser, returned
/// as a page-sized copy that owns its text and attribute bytes, so
/// learning, labeling and serving share one lexer, one set of recovery
/// rules (implied end tags, void elements, head/body synthesis, mismatched
/// end-tag skipping) — what the paper obtained by piping pages through HTML
/// Tidy — and one tree type. Parsing never fails; any byte sequence yields
/// a tree.
ArenaTree ParseHtml(std::string_view input, const ParseOptions& options = {});

/// Damage indicators collected by ParseHtmlChecked.
struct ParseDiagnostics {
  /// The input ends inside unterminated markup (a tag cut mid-attribute,
  /// an unclosed comment, a quote cut mid-value) — the signature of a
  /// truncated transfer.
  bool truncated_markup = false;
  /// Tag nodes in the resulting tree (root and synthesized head/body
  /// included).
  int tag_nodes = 0;
};

/// \brief Validating front end for hostile input.
///
/// Like ParseHtml, recovery is best-effort and never crashes; unlike
/// ParseHtml, inputs too damaged to analyze — empty documents, markup that
/// yields no elements at all — return a clean Status::ParseError instead
/// of a degenerate tree. A truncated page that still parses into a usable
/// tree succeeds, with the damage reported through `diagnostics`.
Result<ArenaTree> ParseHtmlChecked(std::string_view input,
                                 const ParseOptions& options = {},
                                 ParseDiagnostics* diagnostics = nullptr);

}  // namespace thor::html

#endif  // THOR_HTML_PARSER_H_
