// The tag vocabulary contract: well-known tags have frozen compile-time ids
// (and path symbols) that learned templates depend on; unknown names are
// interned densely after them, once each, from any number of threads.

#include "src/html/tag_table.h"

#include <cctype>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/strings.h"

namespace thor::html {
namespace {

// Read during static initialization: the vocabulary needs no start-up
// registration, and the well-known tags never occupy the registry.
const int kTagCountAtStartup = TagCount();

// Golden: the frozen id order. Never edit; stored templates depend on it.
const std::vector<std::string> kGoldenNames = {
    "html", "head", "body", "title", "meta", "link", "script", "style", "base",
    "p", "div", "span", "table", "tr", "td", "th", "thead", "tbody", "tfoot",
    "ul", "ol", "li", "dl", "dt", "dd", "a", "img", "br", "hr", "input", "form",
    "select", "option", "textarea", "b", "i", "u", "em", "strong", "font",
    "small", "big", "h1", "h2", "h3", "h4", "h5", "h6", "center", "blockquote",
    "pre", "code", "nobr", "label", "button", "caption", "col", "colgroup",
    "frame", "frameset", "iframe", "map", "area", "param", "object", "embed",
    "noscript",
};

TEST(TagTableTest, WellKnownIdsMatchGoldenOrder) {
  ASSERT_EQ(kGoldenNames.size(), 67u);
  ASSERT_EQ(kWellKnownTagCount, 67);
  for (size_t i = 0; i < kGoldenNames.size(); ++i) {
    const TagId id = static_cast<TagId>(i);
    EXPECT_EQ(kWellKnownTags[i], kGoldenNames[i]) << i;
    EXPECT_EQ(TagName(id), kGoldenNames[i]) << i;
    EXPECT_EQ(FindTag(kGoldenNames[i]), id) << kGoldenNames[i];
    EXPECT_EQ(InternTag(kGoldenNames[i]), id) << kGoldenNames[i];
  }
  EXPECT_EQ(Tag::kHtml, 0);
  EXPECT_EQ(Tag::kTable, 12);
  EXPECT_EQ(Tag::kTd, 14);
  EXPECT_EQ(Tag::kA, 25);
  EXPECT_EQ(Tag::kTextarea, 33);
  EXPECT_EQ(Tag::kBlockquote, 49);
  EXPECT_EQ(Tag::kMap, 61);
  EXPECT_EQ(Tag::kArea, 62);
  EXPECT_EQ(Tag::kNoscript, 66);
}

TEST(TagTableTest, StartupCountIsExactlyTheWellKnownTags) {
  EXPECT_EQ(kTagCountAtStartup, kWellKnownTagCount);
}

TEST(TagTableTest, LookupsFoldCase) {
  EXPECT_EQ(FindTag("TD"), Tag::kTd);
  EXPECT_EQ(FindTag("Td"), Tag::kTd);
  EXPECT_EQ(InternTag("TD"), Tag::kTd);
  EXPECT_EQ(InternTag("Td"), Tag::kTd);
  EXPECT_EQ(InternTag("TABLE"), Tag::kTable);
  EXPECT_EQ(InternTag("TaBLe"), Tag::kTable);
  EXPECT_EQ(FindTag("NoScript"), Tag::kNoscript);
  EXPECT_EQ(FindTag("BLOCKQUOTE"), Tag::kBlockquote);
  EXPECT_EQ(TagName(FindTag("TD")), "td");
}

TEST(TagTableTest, FindNeverGrowsTheRegistry) {
  const int before = TagCount();
  EXPECT_EQ(FindTag("never-seen-find-only"), -1);
  EXPECT_EQ(FindTag("NEVER-SEEN-FIND-ONLY"), -1);
  EXPECT_EQ(FindTag(""), -1);
  EXPECT_EQ(FindTag("tdx"), -1);  // a well-known prefix is not a match
  EXPECT_EQ(FindTag("t"), -1);
  EXPECT_EQ(FindTag("table"), Tag::kTable);
  EXPECT_EQ(TagCount(), before);
  EXPECT_EQ(FindTag("never-seen-find-only"), -1);
}

TEST(TagTableTest, UnknownNamesGetDenseIdsAfterTheWellKnownOnes) {
  const int before = TagCount();
  ASSERT_GE(before, kWellKnownTagCount);
  const std::vector<std::string> names = {"dense-a", "dense-b", "Dense-C",
                                          "dense-d", "dense-e"};
  for (size_t i = 0; i < names.size(); ++i) {
    const TagId id = InternTag(names[i]);
    EXPECT_EQ(id, before + static_cast<TagId>(i)) << names[i];
    EXPECT_EQ(TagCount(), before + static_cast<int>(i) + 1);
    EXPECT_EQ(TagName(id), AsciiLower(names[i]));
  }
  // Interning again, or in another case, is a lookup.
  EXPECT_EQ(InternTag("DENSE-A"), before);
  EXPECT_EQ(FindTag("dense-c"), before + 2);
  EXPECT_EQ(TagCount(), before + static_cast<int>(names.size()));
}

TEST(TagTableTest, TagNameReferencesStayStableAsTheRegistryGrows) {
  const TagId known = Tag::kTable;
  const TagId unknown = InternTag("stable-ref-tag");
  const std::string* known_name = &TagName(known);
  const std::string* unknown_name = &TagName(unknown);
  for (int i = 0; i < 2000; ++i) {
    InternTag("stable-ref-filler-" + std::to_string(i));
  }
  EXPECT_EQ(&TagName(known), known_name);
  EXPECT_EQ(&TagName(unknown), unknown_name);
  EXPECT_EQ(*known_name, "table");
  EXPECT_EQ(*unknown_name, "stable-ref-tag");
}

TEST(TagTableTest, PathSymbolMappingIsFrozen) {
  // id % 62 over [a-zA-Z0-9]: ids 62-66 wrap onto the symbols of ids 0-4.
  const std::string golden =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcde";
  ASSERT_EQ(golden.size(), static_cast<size_t>(kWellKnownTagCount));
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    EXPECT_EQ(TagPathSymbol(id), golden[static_cast<size_t>(id)]) << id;
  }
  EXPECT_EQ(TagPathSymbol(Tag::kArea), TagPathSymbol(Tag::kHtml));
  EXPECT_EQ(TagPathSymbol(Tag::kNoscript), TagPathSymbol(Tag::kMeta));
  EXPECT_EQ(TagPathSymbol(kWellKnownTagCount), 'f');  // first unknown id
}

TEST(TagTableTest, HeadOnlyTags) {
  std::set<TagId> head_only;
  for (TagId id = 0; id < kWellKnownTagCount; ++id) {
    if (IsHeadOnlyTag(id)) head_only.insert(id);
  }
  EXPECT_EQ(head_only, (std::set<TagId>{Tag::kTitle, Tag::kMeta, Tag::kLink,
                                        Tag::kBase, Tag::kStyle}));
  EXPECT_FALSE(IsHeadOnlyTag(InternTag("head-only-unknown")));
}

TEST(TagTableTest, Classification) {
  EXPECT_TRUE(IsVoidTag(Tag::kBr));
  EXPECT_TRUE(IsVoidTag(Tag::kImg));
  EXPECT_FALSE(IsVoidTag(Tag::kDiv));
  EXPECT_TRUE(IsRawTextTag(Tag::kScript));
  EXPECT_TRUE(IsRawTextTag(Tag::kStyle));
  EXPECT_FALSE(IsRawTextTag(Tag::kDiv));
  EXPECT_TRUE(IsInlineTag(Tag::kB));
  EXPECT_TRUE(IsInlineTag(Tag::kA));
  EXPECT_FALSE(IsInlineTag(Tag::kTable));
}

TEST(TagTableTest, ClosesOnOpenRules) {
  EXPECT_TRUE(ClosesOnOpen(Tag::kP, Tag::kP));
  EXPECT_TRUE(ClosesOnOpen(Tag::kP, Tag::kTable));
  EXPECT_TRUE(ClosesOnOpen(Tag::kLi, Tag::kLi));
  EXPECT_TRUE(ClosesOnOpen(Tag::kTd, Tag::kTd));
  EXPECT_TRUE(ClosesOnOpen(Tag::kTd, Tag::kTr));
  EXPECT_TRUE(ClosesOnOpen(Tag::kTr, Tag::kTr));
  EXPECT_TRUE(ClosesOnOpen(Tag::kDt, Tag::kDd));
  EXPECT_TRUE(ClosesOnOpen(Tag::kOption, Tag::kOption));
  EXPECT_FALSE(ClosesOnOpen(Tag::kDiv, Tag::kDiv));
  EXPECT_FALSE(ClosesOnOpen(Tag::kP, Tag::kB));
}

TEST(TagTableTest, ConcurrentInternFindAndNameAgree) {
  constexpr int kThreads = 8;
  constexpr int kUnknown = 256;
  std::vector<std::string> unknown;
  for (int i = 0; i < kUnknown; ++i) {
    unknown.push_back("conc-tag-" + std::to_string(i));
  }
  const int before = TagCount();

  // Each thread walks every unknown name from its own offset (so threads
  // race on the same names), in its own letter case, interleaving
  // well-known lookups and finds of names another thread may be interning.
  std::vector<std::map<std::string, TagId>> seen(kThreads);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kUnknown; ++k) {
        const std::string& name = unknown[(k + t * 37) % kUnknown];
        std::string spelled = name;
        if (t % 2 == 1) {
          for (char& c : spelled) c = static_cast<char>(std::toupper(c));
        }
        const std::string& peer = unknown[(k * 7 + t) % kUnknown];
        const TagId peer_id = FindTag(peer);
        if (peer_id >= 0 && TagName(peer_id) != peer) ++errors[t];
        const TagId id = InternTag(spelled);
        if (FindTag(name) != id || TagName(id) != name) ++errors[t];
        seen[t][name] = id;
        const TagId known = static_cast<TagId>((k + t) % kWellKnownTagCount);
        const std::string& known_name = TagName(known);
        if (FindTag(known_name) != known || InternTag(known_name) != known) {
          ++errors[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], 0) << t;
  std::set<TagId> ids;
  for (const std::string& name : unknown) {
    const TagId id = seen[0].at(name);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t].at(name), id);
    EXPECT_GE(id, before);
    EXPECT_EQ(TagName(id), name);
    ids.insert(id);
  }
  // Exactly one id per name, handed out densely.
  EXPECT_EQ(ids.size(), static_cast<size_t>(kUnknown));
  EXPECT_EQ(TagCount(), before + kUnknown);
  EXPECT_EQ(*ids.rbegin(), before + kUnknown - 1);
}

}  // namespace
}  // namespace thor::html
