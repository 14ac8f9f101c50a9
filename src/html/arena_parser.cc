#include "src/html/arena_parser.h"

#include <cassert>
#include <cstdint>

#include "src/html/entities.h"
#include "src/html/tag_table.h"
#include "src/util/strings.h"

namespace thor::html {

namespace {

bool IsTagNameStart(char c) { return IsAsciiAlpha(c); }
bool IsTagNameChar(char c) {
  return IsAsciiAlnum(c) || c == '-' || c == '_' || c == ':';
}

/// AppendUtf8 with a char sink instead of a std::string.
template <typename Sink>
void PushUtf8(uint32_t cp, Sink&& push) {
  if (cp == 0 || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    cp = 0xFFFD;
  }
  if (cp < 0x80) {
    push(static_cast<char>(cp));
  } else if (cp < 0x800) {
    push(static_cast<char>(0xC0 | (cp >> 6)));
    push(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    push(static_cast<char>(0xE0 | (cp >> 12)));
    push(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    push(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    push(static_cast<char>(0xF0 | (cp >> 18)));
    push(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    push(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    push(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// DecodeEntities with a char sink; branch-for-branch the same algorithm,
/// so the decoded byte stream is identical. The decoded output never has
/// more bytes than the input (every reference is at least as long as its
/// expansion), which is what lets HandleText reserve input-size bytes.
template <typename Sink>
void DecodeEntitiesInto(std::string_view input, Sink&& push) {
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (c != '&') {
      push(c);
      ++i;
      continue;
    }
    size_t j = i + 1;
    if (j < input.size() && input[j] == '#') {
      ++j;
      bool hex = j < input.size() && (input[j] == 'x' || input[j] == 'X');
      if (hex) ++j;
      uint32_t cp = 0;
      size_t digits_start = j;
      while (j < input.size()) {
        char d = input[j];
        uint32_t v;
        if (IsAsciiDigit(d)) {
          v = static_cast<uint32_t>(d - '0');
        } else if (hex && d >= 'a' && d <= 'f') {
          v = static_cast<uint32_t>(d - 'a' + 10);
        } else if (hex && d >= 'A' && d <= 'F') {
          v = static_cast<uint32_t>(d - 'A' + 10);
        } else {
          break;
        }
        cp = cp * (hex ? 16u : 10u) + v;
        if (cp > 0x110000) cp = 0x110000;  // clamp; will become U+FFFD
        ++j;
      }
      if (j == digits_start) {
        push('&');  // "&#" with no digits: literal
        ++i;
        continue;
      }
      PushUtf8(cp, push);
      if (j < input.size() && input[j] == ';') ++j;
      i = j;
      continue;
    }
    size_t name_end = j;
    while (name_end < input.size() && IsAsciiAlnum(input[name_end])) {
      ++name_end;
    }
    if (name_end > j) {
      auto decoded = LookupNamedEntity(input.substr(j, name_end - j));
      if (decoded.has_value()) {
        for (char d : *decoded) push(d);
        if (name_end < input.size() && input[name_end] == ';') ++name_end;
        i = name_end;
        continue;
      }
    }
    push('&');
    ++i;
  }
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
        break;  // comments/doctypes stripped, same as the legacy builder
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
  SkipAttributes(token);
  // FindTag, not InternTag: interning happens when the token is handled,
  // which keeps the registry identical to the legacy pipeline even when a
  // max_nodes cap stops handling before lexing does.
  TagId id = FindTag(token->name);
  if (!token->self_closing && id >= 0 && IsRawTextTag(id)) {
    EnterRawText(token->name);
  }
}

void HotParser::SkipAttributes(LexedToken* token) {
  // Same control flow as Tokenizer::LexAttributes, minus materializing
  // names/values (positions never depend on entity decoding).
  while (pos_ < input_.size()) {
    while (pos_ < input_.size() && IsAsciiSpace(input_[pos_])) ++pos_;
    if (pos_ >= input_.size()) return;
    char c = input_[pos_];
    if (c == '>') {
      ++pos_;
      return;
    }
    if (c == '/') {
      ++pos_;
      if (pos_ < input_.size() && input_[pos_] == '>') {
        token->self_closing = true;
        ++pos_;
        return;
      }
      continue;  // stray '/': skip
    }
    size_t name_start = pos_;
    while (pos_ < input_.size() && input_[pos_] != '=' &&
           input_[pos_] != '>' && input_[pos_] != '/' &&
           !IsAsciiSpace(input_[pos_])) {
      ++pos_;
    }
    if (pos_ == name_start) {  // stray byte such as '"': skip it
      ++pos_;
      continue;
    }
    while (pos_ < input_.size() && IsAsciiSpace(input_[pos_])) ++pos_;
    if (pos_ < input_.size() && input_[pos_] == '=') {
      ++pos_;
      while (pos_ < input_.size() && IsAsciiSpace(input_[pos_])) ++pos_;
      if (pos_ < input_.size() &&
          (input_[pos_] == '"' || input_[pos_] == '\'')) {
        char quote = input_[pos_++];
        while (pos_ < input_.size() && input_[pos_] != quote) ++pos_;
        if (pos_ < input_.size()) ++pos_;  // closing quote
      } else {
        while (pos_ < input_.size() && !IsAsciiSpace(input_[pos_]) &&
               input_[pos_] != '>') {
          ++pos_;
        }
      }
    }
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
    // Legacy merges attributes into the root; ArenaTree stores none.
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
  if (!IsVoidTag(tag) && !token.self_closing) {
    stack_.push_back(node);
  }
  last_raw_text_node_ =
      (IsRawTextTag(tag) && !token.self_closing) ? node : kInvalidNode;
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
  // Same drop rule as the legacy builder (order relative to the emptiness
  // check does not matter: both return without side effects).
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
    // entity-decoded by the legacy tokenizer either.
    for (char c : raw) push(c);
  } else {
    DecodeEntitiesInto(raw, push);
  }
  assert(n <= raw.size());
  if (n > 0 && buf[n - 1] == ' ') --n;  // CollapseWhitespace trims the tail
  arena.ShrinkLast(buf, raw.size(), n);
  if (n == 0) return;
  if (AtRootLevel()) EnsureBody();
  tree_.AddContent(Top(), std::string_view(buf, n));
}

}  // namespace thor::html
