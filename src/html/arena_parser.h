#ifndef THOR_HTML_ARENA_PARSER_H_
#define THOR_HTML_ARENA_PARSER_H_

#include <string_view>
#include <vector>

#include "src/html/arena_tree.h"
#include "src/html/parser.h"

namespace thor::html {

/// \brief The HTML lexer and tree builder: one pass, no steady-state heap.
///
/// Produces the paper's tag-tree model as an ArenaTree. Recovery rules
/// (implied end tags, void elements, head/body synthesis, mismatched
/// end-tag skipping) mirror what the paper obtained by piping pages through
/// HTML Tidy; any byte sequence yields a tree.
///
/// - the token stream is lexed as string_views over the input; tag names
///   are never copied (the process-wide tag registry folds case during
///   lookup);
/// - attributes are scanned for position only: each handled start tag that
///   carries any records one (node, byte span) entry, which ToTagTree
///   decodes for learning and labeling; serving never reads them;
/// - text runs are entity-decoded and whitespace-collapsed in a single
///   fused pass straight into the tree's arena (raw-text elements skip
///   decoding);
/// - path signatures and tag counts are built during construction by
///   ArenaTree::AddTag, so signature building costs nothing extra.
///
/// ParseHtml is Parse followed by ToTagTree; tests/hotpath_diff_test.cc
/// pins the two trees node for node over whole drifting deepweb fleets.
///
/// Reusable: each Parse resets and refills the embedded tree. Not
/// thread-safe; use one HotParser per worker thread.
class HotParser {
 public:
  /// Parses `input`; the returned tree is owned by this parser and valid
  /// until the next Parse call.
  const ArenaTree& Parse(std::string_view input,
                         const ParseOptions& options = {});

  const ArenaTree& tree() const { return tree_; }

  /// Copies the last parse into a TagTree: same node ids, collapsed text
  /// and derived fields, plus the decoded start-tag attributes. The input
  /// given to that Parse must still be alive (attributes are decoded from
  /// it).
  TagTree ToTagTree() const;

 private:
  struct LexedToken {
    enum class Kind : uint8_t {
      kStartTag,
      kEndTag,
      kText,     // raw substring, entity decoding pending
      kRawText,  // raw-text element payload: collapse only, never decoded
      kSkip,     // comment / doctype / bogus comment (position-only)
    };
    Kind kind = Kind::kSkip;
    std::string_view name;  // start/end tag name, original casing
    std::string_view text;
    /// Start tag's attribute bytes; empty when it carries no attribute.
    std::string_view attributes;
    bool self_closing = false;
  };

  /// Attribute bytes of one handled start tag and the node they belong to
  /// (the root for <html>, body for <body>, else the new node).
  struct AttributeSpan {
    NodeId node;
    std::string_view bytes;
  };

  // Lexer.
  bool NextToken(LexedToken* token);
  bool LexMarkup(LexedToken* token);
  void LexBogusComment();
  void LexEndTag(LexedToken* token);
  void LexStartTag(LexedToken* token);
  void EnterRawText(std::string_view tag_name);

  // Builder.
  void HandleStartTag(const LexedToken& token);
  void RecordAttributes(NodeId node, const LexedToken& token);
  void HandleEndTag(std::string_view name);
  void HandleText(std::string_view raw, bool is_raw_text);
  NodeId Top() const { return stack_.back(); }
  TagId TopTag() const { return tree_.node(Top()).tag; }
  bool AtRootLevel() const { return stack_.size() == 1; }
  void EnsureHead();
  void EnsureBody();
  void PopOne();

  ArenaTree tree_;
  std::vector<NodeId> stack_;
  ParseOptions options_;
  NodeId head_ = kInvalidNode;
  NodeId body_ = kInvalidNode;
  NodeId last_raw_text_node_ = kInvalidNode;
  /// Capacity retained across Parse calls, like the tree's.
  std::vector<AttributeSpan> attribute_spans_;

  std::string_view input_;
  size_t pos_ = 0;
  std::string_view pending_raw_text_;
  bool has_pending_raw_text_ = false;
};

}  // namespace thor::html

#endif  // THOR_HTML_ARENA_PARSER_H_
