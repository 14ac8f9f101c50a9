#ifndef THOR_HTML_TAG_TABLE_H_
#define THOR_HTML_TAG_TABLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace thor::html {

/// Interned identifier for a (lowercased) tag name, so tag-tree signatures
/// from different pages share a vocabulary.
///
/// Vocabulary contract:
///  - The well-known tags (`kWellKnownTags`, named by `Tag::k*`) have
///    compile-time ids: a name's index in the table is its id. Looking one
///    up, by name or by id, is lock-free and allocation-free.
///  - Any other name is interned once, under the registry lock, on first
///    use; its id continues densely after the well-known ids.
///  - Ids are stable for the lifetime of the process, and `TagName`
///    references stay valid as the registry grows.
using TagId = int32_t;

/// Number of well-known tags; the first interned unknown name gets this id.
inline constexpr TagId kWellKnownTagCount = 67;

/// The well-known tag names, lowercase, indexed by id. The order is frozen:
/// ids pick the path symbols that learned templates store (see
/// `TagPathSymbol`).
inline constexpr std::array<std::string_view, kWellKnownTagCount>
    kWellKnownTags = {
        "html",     "head",       "body",     "title",    "meta",
        "link",     "script",     "style",    "base",     "p",
        "div",      "span",       "table",    "tr",       "td",
        "th",       "thead",      "tbody",    "tfoot",    "ul",
        "ol",       "li",         "dl",       "dt",       "dd",
        "a",        "img",        "br",       "hr",       "input",
        "form",     "select",     "option",   "textarea", "b",
        "i",        "u",          "em",       "strong",   "font",
        "small",    "big",        "h1",       "h2",       "h3",
        "h4",       "h5",         "h6",       "center",   "blockquote",
        "pre",      "code",       "nobr",     "label",    "button",
        "caption",  "col",        "colgroup", "frame",    "frameset",
        "iframe",   "map",        "area",     "param",    "object",
        "embed",    "noscript",
};

/// Compile-time id of a well-known `name`; a compile error when `name` is
/// not in the table.
consteval TagId WellKnownTagId(std::string_view name) {
  for (size_t i = 0; i < kWellKnownTags.size(); ++i) {
    if (kWellKnownTags[i] == name) return static_cast<TagId>(i);
  }
  throw "not a well-known tag name";
}

/// Well-known tag ids: each is the name's index in `kWellKnownTags`.
struct Tag {
  static constexpr TagId kHtml = WellKnownTagId("html");
  static constexpr TagId kHead = WellKnownTagId("head");
  static constexpr TagId kBody = WellKnownTagId("body");
  static constexpr TagId kTitle = WellKnownTagId("title");
  static constexpr TagId kMeta = WellKnownTagId("meta");
  static constexpr TagId kLink = WellKnownTagId("link");
  static constexpr TagId kScript = WellKnownTagId("script");
  static constexpr TagId kStyle = WellKnownTagId("style");
  static constexpr TagId kBase = WellKnownTagId("base");
  static constexpr TagId kP = WellKnownTagId("p");
  static constexpr TagId kDiv = WellKnownTagId("div");
  static constexpr TagId kSpan = WellKnownTagId("span");
  static constexpr TagId kTable = WellKnownTagId("table");
  static constexpr TagId kTr = WellKnownTagId("tr");
  static constexpr TagId kTd = WellKnownTagId("td");
  static constexpr TagId kTh = WellKnownTagId("th");
  static constexpr TagId kThead = WellKnownTagId("thead");
  static constexpr TagId kTbody = WellKnownTagId("tbody");
  static constexpr TagId kTfoot = WellKnownTagId("tfoot");
  static constexpr TagId kUl = WellKnownTagId("ul");
  static constexpr TagId kOl = WellKnownTagId("ol");
  static constexpr TagId kLi = WellKnownTagId("li");
  static constexpr TagId kDl = WellKnownTagId("dl");
  static constexpr TagId kDt = WellKnownTagId("dt");
  static constexpr TagId kDd = WellKnownTagId("dd");
  static constexpr TagId kA = WellKnownTagId("a");
  static constexpr TagId kImg = WellKnownTagId("img");
  static constexpr TagId kBr = WellKnownTagId("br");
  static constexpr TagId kHr = WellKnownTagId("hr");
  static constexpr TagId kInput = WellKnownTagId("input");
  static constexpr TagId kForm = WellKnownTagId("form");
  static constexpr TagId kSelect = WellKnownTagId("select");
  static constexpr TagId kOption = WellKnownTagId("option");
  static constexpr TagId kTextarea = WellKnownTagId("textarea");
  static constexpr TagId kB = WellKnownTagId("b");
  static constexpr TagId kI = WellKnownTagId("i");
  static constexpr TagId kU = WellKnownTagId("u");
  static constexpr TagId kEm = WellKnownTagId("em");
  static constexpr TagId kStrong = WellKnownTagId("strong");
  static constexpr TagId kFont = WellKnownTagId("font");
  static constexpr TagId kSmall = WellKnownTagId("small");
  static constexpr TagId kBig = WellKnownTagId("big");
  static constexpr TagId kH1 = WellKnownTagId("h1");
  static constexpr TagId kH2 = WellKnownTagId("h2");
  static constexpr TagId kH3 = WellKnownTagId("h3");
  static constexpr TagId kH4 = WellKnownTagId("h4");
  static constexpr TagId kH5 = WellKnownTagId("h5");
  static constexpr TagId kH6 = WellKnownTagId("h6");
  static constexpr TagId kCenter = WellKnownTagId("center");
  static constexpr TagId kBlockquote = WellKnownTagId("blockquote");
  static constexpr TagId kPre = WellKnownTagId("pre");
  static constexpr TagId kCode = WellKnownTagId("code");
  static constexpr TagId kNobr = WellKnownTagId("nobr");
  static constexpr TagId kLabel = WellKnownTagId("label");
  static constexpr TagId kButton = WellKnownTagId("button");
  static constexpr TagId kCaption = WellKnownTagId("caption");
  static constexpr TagId kCol = WellKnownTagId("col");
  static constexpr TagId kColgroup = WellKnownTagId("colgroup");
  static constexpr TagId kFrame = WellKnownTagId("frame");
  static constexpr TagId kFrameset = WellKnownTagId("frameset");
  static constexpr TagId kIframe = WellKnownTagId("iframe");
  static constexpr TagId kMap = WellKnownTagId("map");
  static constexpr TagId kArea = WellKnownTagId("area");
  static constexpr TagId kParam = WellKnownTagId("param");
  static constexpr TagId kObject = WellKnownTagId("object");
  static constexpr TagId kEmbed = WellKnownTagId("embed");
  static constexpr TagId kNoscript = WellKnownTagId("noscript");
};

// The ends of the frozen order; tag_table_test pins every id in between.
static_assert(Tag::kHtml == 0 && Tag::kHead == 1 && Tag::kBody == 2);
static_assert(Tag::kNoscript == kWellKnownTagCount - 1);

/// Interns `name` (case-insensitive; stored lowercased) and returns its id.
/// Lock-free for a well-known name.
TagId InternTag(std::string_view name);

/// Returns the id if `name` is well-known or already interned, or -1.
/// Lock-free for a well-known name; never grows the registry.
TagId FindTag(std::string_view name);

/// Returns the canonical lowercase name for an id. `id` must be valid.
/// Lock-free for a well-known id.
const std::string& TagName(TagId id);

/// Number of distinct tag names with an id so far: the well-known tags
/// plus every unknown name interned.
int TagCount();

/// Single fixed-length letter used to spell this tag inside a path string
/// for edit-distance comparison (the paper's "simplify each tag name to a
/// unique identifier of fixed length q", with q == 1). The alphabet has 62
/// letters and the symbol is `id % 62`, so symbols are unique for ids below
/// 62 only: the well-known ids 62-66 (area, param, object, embed, noscript)
/// already share the symbols of html, head, body, title and meta, and
/// unknown tags wrap around the same way. A shared symbol only makes the
/// distance slightly pessimistic. The mapping is frozen: learned templates
/// store path strings spelled with it.
char TagPathSymbol(TagId id);

/// True for void elements (no content, no end tag): br, img, hr, input, ...
bool IsVoidTag(TagId id);

/// True for elements whose content is raw text (no markup): script, style,
/// textarea, title.
bool IsRawTextTag(TagId id);

/// True for tags that belong in <head>: seeing one before <body> opens
/// <head> implicitly (title, meta, link, base, style).
bool IsHeadOnlyTag(TagId id);

/// True if an open element `open_tag` is implicitly closed when a start tag
/// `incoming` appears (e.g. <li> closes an open <li>; <tr> closes an open
/// <td>). This is the error-recovery core of the tidy-style parser.
bool ClosesOnOpen(TagId open_tag, TagId incoming);

/// True for tags that the parser must not implicitly close when recovering
/// from a mismatched end tag (table cells close at table boundaries, etc.).
bool IsScopeBoundary(TagId id);

/// True for inline formatting elements (b, i, font, span, ...).
bool IsInlineTag(TagId id);

}  // namespace thor::html

#endif  // THOR_HTML_TAG_TABLE_H_
