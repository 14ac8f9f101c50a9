#include "src/html/arena_parser.h"

#include <cassert>

#include "src/html/entities.h"
#include "src/html/tag_table.h"
#include "src/util/strings.h"

namespace thor::html {

namespace {

bool IsTagNameStart(char c) { return IsAsciiAlpha(c); }
bool IsTagNameChar(char c) {
  return IsAsciiAlnum(c) || c == '-' || c == '_' || c == ':';
}

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

}  // namespace

const ArenaTree& HotParser::Parse(std::string_view input,
                                  const ParseOptions& options) {
  input_ = input;
  pos_ = 0;
  pending_raw_text_ = {};
  has_pending_raw_text_ = false;
  options_ = options;
  tree_.Reset();
  stack_.clear();
  stack_.push_back(tree_.root());
  head_ = kInvalidNode;
  body_ = kInvalidNode;
  last_raw_text_node_ = kInvalidNode;
  attribute_spans_.clear();

  LexedToken token;
  while (NextToken(&token)) {
    if (options_.max_nodes > 0 && tree_.node_count() >= options_.max_nodes) {
      break;
    }
    switch (token.kind) {
      case LexedToken::Kind::kStartTag:
        HandleStartTag(token);
        break;
      case LexedToken::Kind::kEndTag:
        HandleEndTag(token.name);
        break;
      case LexedToken::Kind::kText:
        HandleText(token.text, /*is_raw_text=*/false);
        break;
      case LexedToken::Kind::kRawText:
        HandleText(token.text, /*is_raw_text=*/true);
        break;
      case LexedToken::Kind::kSkip:
        break;  // comments/doctypes stripped, as HTML Tidy normalization does
    }
  }
  tree_.FinalizeDerived();
  return tree_;
}

bool HotParser::NextToken(LexedToken* token) {
  *token = LexedToken{};
  if (has_pending_raw_text_) {
    has_pending_raw_text_ = false;
    if (!pending_raw_text_.empty()) {
      token->kind = LexedToken::Kind::kRawText;
      token->text = pending_raw_text_;
      pending_raw_text_ = {};
      return true;
    }
  }
  if (pos_ >= input_.size()) return false;
  if (input_[pos_] == '<') {
    size_t saved = pos_;
    if (LexMarkup(token)) return true;
    pos_ = saved;  // literal '<': fall through to text
  }
  // Accumulate text until the next plausible markup start.
  size_t start = pos_;
  ++pos_;  // consume at least one byte (possibly a literal '<')
  while (pos_ < input_.size()) {
    if (input_[pos_] == '<' && pos_ + 1 < input_.size()) {
      char next = input_[pos_ + 1];
      if (IsTagNameStart(next) || next == '/' || next == '!' || next == '?') {
        break;
      }
    }
    ++pos_;
  }
  token->kind = LexedToken::Kind::kText;
  token->text = input_.substr(start, pos_ - start);
  return true;
}

bool HotParser::LexMarkup(LexedToken* token) {
  // pos_ points at '<'.
  if (pos_ + 1 >= input_.size()) return false;
  char c = input_[pos_ + 1];
  if (c == '!') {
    if (input_.compare(pos_ + 2, 2, "--") == 0) {
      pos_ += 4;  // "<!--"
      size_t end = input_.find("-->", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
    } else if (input_.size() - pos_ >= 9 &&
               EqualsIgnoreAsciiCase(input_.substr(pos_ + 2, 7), "doctype")) {
      pos_ += 2;  // "<!"
      size_t end = input_.find('>', pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
    } else {
      LexBogusComment();
    }
    token->kind = LexedToken::Kind::kSkip;
    return true;
  }
  if (c == '?') {  // processing instruction / XML decl: bogus comment
    LexBogusComment();
    token->kind = LexedToken::Kind::kSkip;
    return true;
  }
  if (c == '/') {
    if (pos_ + 2 < input_.size() && IsTagNameStart(input_[pos_ + 2])) {
      LexEndTag(token);
      return true;
    }
    LexBogusComment();  // "</3" and friends
    token->kind = LexedToken::Kind::kSkip;
    return true;
  }
  if (IsTagNameStart(c)) {
    LexStartTag(token);
    return true;
  }
  return false;  // literal '<'
}

void HotParser::LexBogusComment() {
  pos_ += 1;  // '<'
  size_t end = input_.find('>', pos_);
  pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
}

void HotParser::LexEndTag(LexedToken* token) {
  pos_ += 2;  // "</"
  size_t start = pos_;
  while (pos_ < input_.size() && IsTagNameChar(input_[pos_])) ++pos_;
  token->kind = LexedToken::Kind::kEndTag;
  token->name = input_.substr(start, pos_ - start);
  // Skip anything up to '>' (attributes on end tags are ignored).
  size_t end = input_.find('>', pos_);
  pos_ = (end == std::string_view::npos) ? input_.size() : end + 1;
}

void HotParser::LexStartTag(LexedToken* token) {
  pos_ += 1;  // '<'
  size_t start = pos_;
  while (pos_ < input_.size() && IsTagNameChar(input_[pos_])) ++pos_;
  token->kind = LexedToken::Kind::kStartTag;
  token->name = input_.substr(start, pos_ - start);
  // Positions only: names and values are materialized by ToTagTree, from
  // the span recorded here, and never on the serving path.
  size_t attributes_start = pos_;
  bool has_attributes = false;
  pos_ = ScanAttributes(input_, pos_, &token->self_closing,
                        [&](std::string_view, std::string_view) {
                          has_attributes = true;
                        });
  if (has_attributes) {
    token->attributes =
        input_.substr(attributes_start, pos_ - attributes_start);
  }
  // FindTag, not InternTag: interning happens when the token is handled,
  // so a max_nodes cap that stops handling before lexing does leaves the
  // registry untouched by the unhandled tag.
  TagId id = FindTag(token->name);
  if (!token->self_closing && id >= 0 && IsRawTextTag(id)) {
    EnterRawText(token->name);
  }
}

void HotParser::EnterRawText(std::string_view tag_name) {
  // Scan for "</tagname" (case-insensitive) followed by space, '/' or '>'.
  size_t scan = pos_;
  while (scan < input_.size()) {
    size_t lt = input_.find('<', scan);
    if (lt == std::string_view::npos || lt + 1 >= input_.size()) {
      scan = input_.size();
      break;
    }
    if (input_[lt + 1] == '/' &&
        input_.size() - (lt + 2) >= tag_name.size() &&
        EqualsIgnoreAsciiCase(input_.substr(lt + 2, tag_name.size()),
                              tag_name)) {
      size_t after = lt + 2 + tag_name.size();
      if (after >= input_.size() || input_[after] == '>' ||
          input_[after] == '/' || IsAsciiSpace(input_[after])) {
        scan = lt;
        break;
      }
    }
    scan = lt + 1;
  }
  pending_raw_text_ = input_.substr(pos_, scan - pos_);
  has_pending_raw_text_ = true;
  pos_ = scan;  // leave the "</tag>" for the normal path to lex
}

void HotParser::EnsureHead() {
  if (head_ == kInvalidNode) head_ = tree_.AddTag(tree_.root(), Tag::kHead);
}

void HotParser::EnsureBody() {
  if (body_ == kInvalidNode) {
    while (stack_.size() > 1) stack_.pop_back();
    body_ = tree_.AddTag(tree_.root(), Tag::kBody);
    stack_.push_back(body_);
  }
}

void HotParser::PopOne() {
  if (stack_.size() > 1) stack_.pop_back();
}

void HotParser::HandleStartTag(const LexedToken& token) {
  TagId tag = InternTag(token.name);
  if (tag == Tag::kHtml) {
    // <html> attributes merge into the synthesized root, in source order.
    RecordAttributes(tree_.root(), token);
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
    RecordAttributes(body_, token);
    return;
  }
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
  while (stack_.size() > 1 && ClosesOnOpen(TopTag(), tag)) {
    PopOne();
  }
  if (AtRootLevel()) EnsureBody();
  NodeId node = tree_.AddTag(Top(), tag);
  RecordAttributes(node, token);
  if (!IsVoidTag(tag) && !token.self_closing) {
    stack_.push_back(node);
  }
  last_raw_text_node_ =
      (IsRawTextTag(tag) && !token.self_closing) ? node : kInvalidNode;
}

void HotParser::RecordAttributes(NodeId node, const LexedToken& token) {
  if (!token.attributes.empty()) {
    attribute_spans_.push_back({node, token.attributes});
  }
}

void HotParser::HandleEndTag(std::string_view name) {
  TagId tag = FindTag(name);
  if (tag < 0) return;  // end tag for a never-seen tag: ignore
  if (tag == Tag::kHtml) {
    while (stack_.size() > 1) PopOne();
    return;
  }
  if (tag == Tag::kBody) {
    for (size_t i = stack_.size(); i-- > 0;) {
      if (stack_[i] == body_) {
        stack_.resize(i == 0 ? 1 : i);
        if (stack_.empty()) stack_.push_back(tree_.root());
        return;
      }
    }
    return;
  }
  for (size_t i = stack_.size(); i-- > 1;) {
    TagId open = tree_.node(stack_[i]).tag;
    if (open == tag) {
      stack_.resize(i);
      return;
    }
    if (IsScopeBoundary(open) && !IsScopeBoundary(tag)) {
      if (tag != Tag::kTable) return;
    }
  }
  // No match: ignore (Tidy drops orphan end tags).
}

void HotParser::HandleText(std::string_view raw, bool is_raw_text) {
  if (last_raw_text_node_ != kInvalidNode && Top() == last_raw_text_node_) {
    TagId tag = tree_.node(Top()).tag;
    if (tag == Tag::kScript || tag == Tag::kStyle) {
      return;  // drop code, keep the tag node
    }
  }
  // Fused decode + collapse, straight into the arena. Decoding never grows
  // the byte stream and collapsing never grows it either, so the raw size
  // is a safe upper bound; the unused tail is returned to the arena.
  Arena& arena = tree_.arena();
  char* buf = static_cast<char*>(arena.Allocate(raw.size(), 1));
  size_t n = 0;
  bool in_space = true;  // true so leading whitespace is dropped
  auto push = [&](char c) {
    if (IsAsciiSpace(c)) {
      if (!in_space) buf[n++] = ' ';
      in_space = true;
    } else {
      buf[n++] = c;
      in_space = false;
    }
  };
  if (is_raw_text) {
    // Raw-text payloads (title/textarea/script/style) are never
    // entity-decoded.
    for (char c : raw) push(c);
  } else {
    DecodeEntities(raw, push);
  }
  assert(n <= raw.size());
  if (n > 0 && buf[n - 1] == ' ') --n;  // CollapseWhitespace trims the tail
  arena.ShrinkLast(buf, raw.size(), n);
  if (n == 0) return;
  if (AtRootLevel()) EnsureBody();
  tree_.AddContent(Top(), std::string_view(buf, n));
}


TagTree HotParser::ToTagTree() const {
  // Arena ids are insertion order with parents first, so appending in id
  // order reproduces every id and every child order.
  TagTree out;
  for (NodeId id = 1; id < tree_.node_count(); ++id) {
    const ArenaNode& n = tree_.node(id);
    if (n.is_tag()) {
      out.AddTag(n.parent, n.tag);
    } else {
      out.AddContent(n.parent, n.text());
    }
  }
  for (const AttributeSpan& span : attribute_spans_) {
    std::vector<Attribute>& attributes = out.mutable_node(span.node).attributes;
    bool self_closing = false;
    ScanAttributes(span.bytes, 0, &self_closing,
                   [&](std::string_view name, std::string_view value) {
                     attributes.push_back({AsciiLower(name),
                                           DecodeEntities(value)});
                   });
  }
  out.FinalizeDerived();
  return out;
}

}  // namespace thor::html
