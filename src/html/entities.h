#ifndef THOR_HTML_ENTITIES_H_
#define THOR_HTML_ENTITIES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/strings.h"

namespace thor::html {

/// Looks up a named HTML character reference (without '&' and ';'),
/// e.g. "amp" -> "&", "nbsp" -> " " (U+00A0 as UTF-8). Returns nullopt for
/// unknown names. Covers the HTML 4.01 entity set used in real pages plus
/// the common Latin-1 range.
std::optional<std::string_view> LookupNamedEntity(std::string_view name);

/// Emits the UTF-8 encoding of a Unicode code point through `push(char)`.
/// Invalid code points (surrogates, > U+10FFFF, NUL) become U+FFFD.
template <typename Sink>
void EncodeUtf8(uint32_t cp, Sink&& push) {
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

/// Decodes all character references ("&amp;", "&#65;", "&#x41;") in
/// `input`, emitting the result through `push(char)`. Malformed references
/// are passed through verbatim, matching browser leniency. The output never
/// has more bytes than the input: every reference is at least as long as
/// its expansion.
template <typename Sink>
void DecodeEntities(std::string_view input, Sink&& push) {
  size_t i = 0;
  while (i < input.size()) {
    char c = input[i];
    if (c != '&') {
      push(c);
      ++i;
      continue;
    }
    // Try to parse a reference starting at i.
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
      EncodeUtf8(cp, push);
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

/// DecodeEntities into a string.
std::string DecodeEntities(std::string_view input);

/// Escapes '&', '<', '>', '"' for safe re-serialization of text/attributes.
std::string EscapeText(std::string_view input);

}  // namespace thor::html

#endif  // THOR_HTML_ENTITIES_H_
