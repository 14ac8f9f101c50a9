#include "src/html/parser.h"

#include <vector>

#include "src/html/tag_table.h"
#include "src/html/tokenizer.h"
#include "src/util/strings.h"

namespace thor::html {

namespace {

class TreeBuilder {
 public:
  explicit TreeBuilder(const ParseOptions& options) : options_(options) {
    stack_.push_back(tree_.root());
  }

  TagTree Build(std::string_view input) {
    Tokenizer tokenizer(input);
    Token token;
    while (tokenizer.Next(&token)) {
      if (options_.max_nodes > 0 && tree_.node_count() >= options_.max_nodes) {
        break;
      }
      switch (token.kind) {
        case TokenKind::kStartTag:
          HandleStartTag(token);
          break;
        case TokenKind::kEndTag:
          HandleEndTag(token);
          break;
        case TokenKind::kText:
          HandleText(token);
          break;
        case TokenKind::kComment:
        case TokenKind::kDoctype:
        case TokenKind::kEndOfInput:
          break;  // stripped, as HTML Tidy normalization does
      }
    }
    tree_.FinalizeDerived();
    return std::move(tree_);
  }

 private:
  NodeId Top() const { return stack_.back(); }
  TagId TopTag() const { return tree_.node(Top()).tag; }

  void EnsureHead() {
    if (head_ == kInvalidNode) head_ = tree_.AddTag(tree_.root(), Tag::kHead);
  }

  void EnsureBody() {
    if (body_ == kInvalidNode) {
      // Close anything still open in head.
      while (stack_.size() > 1) stack_.pop_back();
      body_ = tree_.AddTag(tree_.root(), Tag::kBody);
      stack_.push_back(body_);
    }
  }

  // True when the open-element stack currently sits at <html> level.
  bool AtRootLevel() const { return stack_.size() == 1; }

  void HandleStartTag(const Token& token) {
    TagId tag = InternTag(token.name);
    if (tag == Tag::kHtml) {
      // Merge attributes into the synthesized root.
      for (const Attribute& a : token.attributes) {
        tree_.mutable_node(tree_.root()).attributes.push_back(a);
      }
      return;
    }
    if (tag == Tag::kHead) {
      if (body_ != kInvalidNode) return;  // head after body: ignore
      EnsureHead();
      if (AtRootLevel()) stack_.push_back(head_);
      return;
    }
    if (tag == Tag::kBody) {
      EnsureBody();
      for (const Attribute& a : token.attributes) {
        tree_.mutable_node(body_).attributes.push_back(a);
      }
      return;
    }
    // Decide the insertion context when nothing is open yet.
    if (AtRootLevel()) {
      if (IsHeadOnlyTag(tag) && body_ == kInvalidNode) {
        EnsureHead();
        stack_.push_back(head_);
      } else {
        EnsureBody();
      }
    } else if (body_ == kInvalidNode && stack_.size() >= 2 &&
               stack_[1] == head_ && !IsHeadOnlyTag(tag) &&
               tag != Tag::kScript && tag != Tag::kNoscript) {
      // Body content while <head> is open: close head, open body.
      while (stack_.size() > 1) PopOne();
      EnsureBody();
    }
    // Implied end tags: <li> closes <li>, <tr> closes <td>, etc.
    while (stack_.size() > 1 && ClosesOnOpen(TopTag(), tag)) {
      PopOne();
    }
    if (AtRootLevel()) EnsureBody();
    NodeId node = tree_.AddTag(Top(), tag, token.attributes);
    if (!IsVoidTag(tag) && !token.self_closing) {
      stack_.push_back(node);
    }
    last_raw_text_node_ =
        (IsRawTextTag(tag) && !token.self_closing) ? node : kInvalidNode;
  }

  void HandleEndTag(const Token& token) {
    TagId tag = FindTag(token.name);
    if (tag < 0) return;  // end tag for a never-seen tag: ignore
    if (tag == Tag::kHtml) {
      while (stack_.size() > 1) PopOne();
      return;
    }
    if (tag == Tag::kBody) {
      // Close down to body if it is open.
      for (size_t i = stack_.size(); i-- > 0;) {
        if (stack_[i] == body_) {
          stack_.resize(i == 0 ? 1 : i);
          if (stack_.empty()) stack_.push_back(tree_.root());
          return;
        }
      }
      return;
    }
    // Search the open stack top-down for a matching element; stop at scope
    // boundaries so a stray </td> cannot close an outer table's cell.
    for (size_t i = stack_.size(); i-- > 1;) {
      TagId open = tree_.node(stack_[i]).tag;
      if (open == tag) {
        stack_.resize(i);
        return;
      }
      if (IsScopeBoundary(open) && !IsScopeBoundary(tag)) {
        // Inline/structural mismatch across a boundary: ignore the end tag
        // unless it closes the boundary element itself (handled above).
        if (tag != Tag::kTable) return;
      }
    }
    // No match: ignore (Tidy drops orphan end tags).
  }

  void HandleText(const Token& token) {
    std::string_view text = StripAsciiWhitespace(token.text);
    if (text.empty()) return;
    if (last_raw_text_node_ != kInvalidNode &&
        Top() == last_raw_text_node_) {
      TagId tag = tree_.node(Top()).tag;
      if (tag == Tag::kScript || tag == Tag::kStyle) {
        return;  // drop code, keep the tag node
      }
    }
    if (AtRootLevel()) EnsureBody();
    tree_.AddContent(Top(), token.text);
  }

  void PopOne() {
    if (stack_.size() > 1) stack_.pop_back();
  }

  ParseOptions options_;
  TagTree tree_;
  std::vector<NodeId> stack_;
  NodeId head_ = kInvalidNode;
  NodeId body_ = kInvalidNode;
  NodeId last_raw_text_node_ = kInvalidNode;
};

}  // namespace

TagTree ParseHtml(std::string_view input, const ParseOptions& options) {
  TreeBuilder builder(options);
  return builder.Build(input);
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
