#include "src/html/tag_table.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/util/strings.h"

namespace thor::html {

namespace {

// FNV-1a over lowercased bytes, so lookups never have to materialize a
// lowercased copy of the queried name.
constexpr uint64_t FoldedHash(std::string_view s) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : s) {
    hash ^= static_cast<unsigned char>(AsciiToLower(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Well-known tags: a compile-time open-addressing index from the folded
// hash of a name to its id. Read-only, so lookups need no lock.

// The case-folding lookup below is a bijection only if every well-known
// name is non-empty, lowercase ASCII alphanumeric and listed once.
constexpr bool WellKnownTagsAreCanonical() {
  for (size_t i = 0; i < kWellKnownTags.size(); ++i) {
    if (kWellKnownTags[i].empty()) return false;
    for (char c : kWellKnownTags[i]) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) return false;
    }
    for (size_t j = 0; j < i; ++j) {
      if (kWellKnownTags[i] == kWellKnownTags[j]) return false;
    }
  }
  return true;
}
static_assert(WellKnownTagsAreCanonical(),
              "well-known tag names must be distinct, lowercase alnum");

constexpr size_t kIndexSlots = 256;  // power of two; load factor ~0.26
static_assert(kIndexSlots >= 2 * kWellKnownTags.size());

struct WellKnownIndex {
  std::array<int8_t, kIndexSlots> slot{};  // id, or -1 when empty
  size_t longest_probe = 0;                // slots visited to place a name
  size_t longest_name = 0;
};

constexpr WellKnownIndex BuildWellKnownIndex() {
  WellKnownIndex index;
  index.slot.fill(-1);
  for (size_t id = 0; id < kWellKnownTags.size(); ++id) {
    std::string_view name = kWellKnownTags[id];
    size_t i = FoldedHash(name) & (kIndexSlots - 1);
    size_t probe = 1;
    for (; index.slot[i] >= 0; i = (i + 1) & (kIndexSlots - 1)) ++probe;
    index.slot[i] = static_cast<int8_t>(id);
    index.longest_probe = std::max(index.longest_probe, probe);
    index.longest_name = std::max(index.longest_name, name.size());
  }
  return index;
}

constexpr WellKnownIndex kWellKnownIndex = BuildWellKnownIndex();
static_assert(kWellKnownTagCount <= 127, "ids must fit the int8_t slots");
static_assert(kWellKnownIndex.longest_probe <= 3,
              "well-known index clusters; grow kIndexSlots");

// `name` in any case against a lowercase well-known name.
constexpr bool FoldedEquals(std::string_view name, std::string_view known) {
  if (name.size() != known.size()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (AsciiToLower(name[i]) != known[i]) return false;
  }
  return true;
}

// Id of a well-known `name` (any case), or -1.
constexpr TagId FindWellKnown(std::string_view name) {
  if (name.empty() || name.size() > kWellKnownIndex.longest_name) return -1;
  for (size_t i = FoldedHash(name) & (kIndexSlots - 1);;
       i = (i + 1) & (kIndexSlots - 1)) {
    int8_t id = kWellKnownIndex.slot[i];
    if (id < 0) return -1;
    if (FoldedEquals(name, kWellKnownTags[static_cast<size_t>(id)])) {
      return id;
    }
  }
}

constexpr bool EveryWellKnownNameFindsItsId() {
  for (size_t id = 0; id < kWellKnownTags.size(); ++id) {
    if (FindWellKnown(kWellKnownTags[id]) != static_cast<TagId>(id)) {
      return false;
    }
  }
  return true;
}
static_assert(EveryWellKnownNameFindsItsId());

// Canonical std::string spellings for `TagName`. After the first call the
// static's guard is a plain acquire load: no lock.
const std::array<std::string, kWellKnownTagCount>& WellKnownNames() {
  static const auto& names = *new std::array<std::string, kWellKnownTagCount>(
      [] {
        std::array<std::string, kWellKnownTagCount> out;
        for (size_t id = 0; id < out.size(); ++id) {
          out[id] = std::string(kWellKnownTags[id]);
        }
        return out;
      }());
  return names;
}

// ---------------------------------------------------------------------------
// Unknown names: interned once under a lock. ExtractBatch parses pages
// concurrently, and a drifted page may carry a tag nobody has seen yet.

struct FoldedHasher {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(FoldedHash(s));
  }
};

struct FoldedEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return EqualsIgnoreAsciiCase(a, b);
  }
};

struct Registry {
  // names[i] is the lowercase spelling of id kWellKnownTagCount + i. The
  // deque keeps `TagName` references stable while it grows, and the map's
  // keys view into it.
  std::deque<std::string> names;
  std::unordered_map<std::string_view, TagId, FoldedHasher, FoldedEqual> ids;
  mutable std::shared_mutex mu;

  TagId Intern(std::string_view raw) {
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      auto it = ids.find(raw);
      if (it != ids.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu);
    auto it = ids.find(raw);
    if (it != ids.end()) return it->second;
    TagId id = kWellKnownTagCount + static_cast<TagId>(names.size());
    names.push_back(AsciiLower(raw));
    ids.emplace(names.back(), id);
    return id;
  }

  TagId Find(std::string_view raw) const {
    std::shared_lock<std::shared_mutex> lock(mu);
    auto it = ids.find(raw);
    return it == ids.end() ? -1 : it->second;
  }
};

Registry& GetRegistry() {
  static Registry& registry = *new Registry();
  return registry;
}

// ---------------------------------------------------------------------------
// Path symbols. Frozen: learned templates store path strings spelled with
// them, so these pins must never change.

constexpr std::string_view kPathAlphabet =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
static_assert(kPathAlphabet.size() == 62);

constexpr char PathSymbol(TagId id) {
  return kPathAlphabet[static_cast<size_t>(id) % kPathAlphabet.size()];
}
static_assert(PathSymbol(Tag::kHtml) == 'a' && PathSymbol(Tag::kMap) == '9');
// The well-known ids past the alphabet wrap onto the first five.
static_assert(PathSymbol(Tag::kArea) == PathSymbol(Tag::kHtml));
static_assert(PathSymbol(Tag::kParam) == PathSymbol(Tag::kHead));
static_assert(PathSymbol(Tag::kObject) == PathSymbol(Tag::kBody));
static_assert(PathSymbol(Tag::kEmbed) == PathSymbol(Tag::kTitle));
static_assert(PathSymbol(Tag::kNoscript) == PathSymbol(Tag::kMeta));

}  // namespace

TagId InternTag(std::string_view name) {
  TagId id = FindWellKnown(name);
  return id >= 0 ? id : GetRegistry().Intern(name);
}

TagId FindTag(std::string_view name) {
  TagId id = FindWellKnown(name);
  return id >= 0 ? id : GetRegistry().Find(name);
}

const std::string& TagName(TagId id) {
  assert(id >= 0);
  if (id < kWellKnownTagCount) return WellKnownNames()[static_cast<size_t>(id)];
  const Registry& registry = GetRegistry();
  std::shared_lock<std::shared_mutex> lock(registry.mu);
  size_t index = static_cast<size_t>(id - kWellKnownTagCount);
  assert(index < registry.names.size());
  return registry.names[index];
}

int TagCount() {
  const Registry& registry = GetRegistry();
  std::shared_lock<std::shared_mutex> lock(registry.mu);
  return kWellKnownTagCount + static_cast<int>(registry.names.size());
}

char TagPathSymbol(TagId id) { return PathSymbol(id); }

bool IsVoidTag(TagId id) {
  return id == Tag::kBr || id == Tag::kImg || id == Tag::kHr ||
         id == Tag::kInput || id == Tag::kMeta || id == Tag::kLink ||
         id == Tag::kBase || id == Tag::kCol || id == Tag::kArea ||
         id == Tag::kParam || id == Tag::kEmbed || id == Tag::kFrame;
}

bool IsRawTextTag(TagId id) {
  return id == Tag::kScript || id == Tag::kStyle || id == Tag::kTextarea ||
         id == Tag::kTitle;
}

bool IsHeadOnlyTag(TagId id) {
  return id == Tag::kTitle || id == Tag::kMeta || id == Tag::kLink ||
         id == Tag::kBase || id == Tag::kStyle;
}

bool ClosesOnOpen(TagId open_tag, TagId incoming) {
  // <p> is closed by any block-level start tag.
  if (open_tag == Tag::kP) {
    return incoming == Tag::kP || incoming == Tag::kDiv ||
           incoming == Tag::kTable || incoming == Tag::kUl ||
           incoming == Tag::kOl || incoming == Tag::kLi ||
           incoming == Tag::kBlockquote || incoming == Tag::kPre ||
           incoming == Tag::kHr || incoming == Tag::kH1 ||
           incoming == Tag::kH2 || incoming == Tag::kH3 ||
           incoming == Tag::kH4 || incoming == Tag::kH5 ||
           incoming == Tag::kH6 || incoming == Tag::kForm ||
           incoming == Tag::kDl;
  }
  if (open_tag == Tag::kLi) return incoming == Tag::kLi;
  if (open_tag == Tag::kDt || open_tag == Tag::kDd) {
    return incoming == Tag::kDt || incoming == Tag::kDd;
  }
  if (open_tag == Tag::kOption) return incoming == Tag::kOption;
  if (open_tag == Tag::kTr) {
    return incoming == Tag::kTr || incoming == Tag::kThead ||
           incoming == Tag::kTbody || incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kTd || open_tag == Tag::kTh) {
    return incoming == Tag::kTd || incoming == Tag::kTh ||
           incoming == Tag::kTr || incoming == Tag::kThead ||
           incoming == Tag::kTbody || incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kThead || open_tag == Tag::kTbody ||
      open_tag == Tag::kTfoot) {
    return incoming == Tag::kThead || incoming == Tag::kTbody ||
           incoming == Tag::kTfoot;
  }
  if (open_tag == Tag::kHead) return incoming == Tag::kBody;
  return false;
}

bool IsScopeBoundary(TagId id) {
  return id == Tag::kTable || id == Tag::kHtml || id == Tag::kBody ||
         id == Tag::kHead;
}

bool IsInlineTag(TagId id) {
  return id == Tag::kA || id == Tag::kB || id == Tag::kI || id == Tag::kU ||
         id == Tag::kEm || id == Tag::kStrong || id == Tag::kFont ||
         id == Tag::kSpan || id == Tag::kSmall || id == Tag::kBig ||
         id == Tag::kCode || id == Tag::kNobr || id == Tag::kLabel;
}

}  // namespace thor::html
