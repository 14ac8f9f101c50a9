// The page tag tree (html::ArenaTree): structure, derived fields, paths,
// text, attributes, and the page-sized copy that learning keeps.
#include "src/html/arena_tree.h"

#include <string>

#include <gtest/gtest.h>

#include "src/html/parser.h"

namespace thor::html {
namespace {

// html > body > (div > text("hi"), table > tr > td > text("cell")), with
// ids in insertion order: html 0, body 1, div 2, "hi" 3, table 4, tr 5,
// td 6, "cell" 7.
ArenaTree BuildFixture() {
  return ParseHtml("<body><div>hi</div><table><tr><td>cell</td></tr></table>");
}

TEST(ArenaTreeTest, RootIsHtml) {
  ArenaTree tree;
  EXPECT_EQ(tree.node_count(), 1);
  EXPECT_EQ(tree.node(tree.root()).tag, Tag::kHtml);
  EXPECT_TRUE(tree.node(tree.root()).is_tag());
  EXPECT_EQ(tree.PathSymbols(tree.root()).size(), 1u);
}

TEST(ArenaTreeTest, ContentIsWhitespaceCollapsed) {
  ArenaTree tree = ParseHtml("<p>  a \n b  </p>");
  NodeId p = tree.ResolvePath("html/body/p");
  ASSERT_NE(p, kInvalidNode);
  ASSERT_EQ(tree.Fanout(p), 1);
  EXPECT_EQ(tree.node(tree.node(p).first_child).text(), "a b");
}

TEST(ArenaTreeTest, WhitespaceOnlyTextAddsNoNode) {
  ArenaTree tree = ParseHtml("   \n\t ");
  EXPECT_EQ(tree.node_count(), 1);
}

TEST(ArenaTreeTest, NodeIdsAreInsertionOrder) {
  ArenaTree tree = BuildFixture();
  ASSERT_EQ(tree.node_count(), 8);
  const TagId expected[] = {Tag::kHtml, Tag::kBody, Tag::kDiv, -1,
                            Tag::kTable, Tag::kTr, Tag::kTd, -1};
  for (NodeId id = 0; id < tree.node_count(); ++id) {
    EXPECT_EQ(tree.node(id).tag, expected[id]) << id;
  }
  EXPECT_EQ(tree.node(3).text(), "hi");
  EXPECT_EQ(tree.node(7).text(), "cell");
}

TEST(ArenaTreeTest, DerivedDepth) {
  ArenaTree tree = BuildFixture();
  EXPECT_EQ(tree.Depth(tree.root()), 0);
  EXPECT_EQ(tree.Depth(1), 1);  // body
  EXPECT_EQ(tree.Depth(6), 4);  // td
  EXPECT_EQ(tree.Depth(7), 5);  // "cell"
}

TEST(ArenaTreeTest, DerivedSubtreeSizeAndContentLength) {
  ArenaTree tree = BuildFixture();
  EXPECT_EQ(tree.SubtreeSize(tree.root()), 8);
  EXPECT_EQ(tree.node(tree.root()).content_length, 6);  // "hi"+"cell"
  EXPECT_EQ(tree.SubtreeSize(4), 4);  // table
  EXPECT_EQ(tree.node(4).content_length, 4);
}

TEST(ArenaTreeTest, ChildrenFanoutAndMaxFanout) {
  ArenaTree tree = BuildFixture();
  std::vector<NodeId> children;
  for (NodeId child : tree.Children(1)) children.push_back(child);
  EXPECT_EQ(children, (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(tree.Fanout(1), 2);
  EXPECT_EQ(tree.MaxFanout(), 2);
}

TEST(ArenaTreeTest, TagCountsAreFused) {
  ArenaTree tree = ParseHtml("<ul><li>a<li>b<li>c</ul>");
  EXPECT_EQ(tree.TagCountOf(Tag::kLi), 3);
  EXPECT_EQ(tree.TagCountOf(Tag::kTable), 0);
  EXPECT_EQ(tree.distinct_tags(),
            (std::vector<TagId>{Tag::kHtml, Tag::kBody, Tag::kUl, Tag::kLi}));
  EXPECT_EQ(tree.TagNodeCount(), 6);
}

TEST(ArenaTreeTest, PathSymbolsShareInternedIds) {
  ArenaTree tree = BuildFixture();
  EXPECT_EQ(tree.PathSymbols(4).size(), 3u);  // html/body/table
  EXPECT_EQ(tree.PathSymbols(4), tree.path(tree.node(4).path_id));
  // A content node has its parent's path.
  EXPECT_EQ(tree.PathSymbols(7), tree.PathSymbols(6));
}

TEST(ArenaTreeTest, PathStringWithSiblingIndices) {
  ArenaTree tree = ParseHtml("<table></table><div></div><table></table>");
  EXPECT_EQ(tree.PathString(4), "html/body/table[2]");
  EXPECT_EQ(tree.PathString(3), "html/body/div");
}

TEST(ArenaTreeTest, ResolvePathRoundTrip) {
  ArenaTree tree = BuildFixture();
  for (NodeId id : tree.Preorder()) {
    if (!tree.node(id).is_tag()) continue;
    EXPECT_EQ(tree.ResolvePath(tree.PathString(id)), id)
        << tree.PathString(id);
  }
}

TEST(ArenaTreeTest, ResolvePathMissing) {
  ArenaTree tree = BuildFixture();
  EXPECT_EQ(tree.ResolvePath("html/body/ul"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath("html/body/table[9]"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath("body"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath(""), kInvalidNode);
}

TEST(ArenaTreeTest, SubtreeTextInDocumentOrder) {
  ArenaTree tree = BuildFixture();
  EXPECT_EQ(tree.SubtreeText(tree.root()), "hi cell");
  EXPECT_EQ(tree.SubtreeText(4), "cell");
  std::string joined = "x";
  tree.AppendSubtreeText(4, &joined);
  EXPECT_EQ(joined, "x cell");
}

TEST(ArenaTreeTest, PreorderIsCompleteAndParentFirst) {
  ArenaTree tree = ParseHtml("<title>t</title><p>a<b>b</b></p><p>c</p>");
  std::vector<NodeId> order = tree.Preorder();
  ASSERT_EQ(static_cast<int>(order.size()), tree.node_count());
  EXPECT_EQ(order.front(), tree.root());
  std::vector<int> position(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    position[static_cast<size_t>(order[i])] = static_cast<int>(i);
  }
  for (NodeId id : order) {
    NodeId parent = tree.node(id).parent;
    if (parent != kInvalidNode) {
      EXPECT_LT(position[static_cast<size_t>(parent)],
                position[static_cast<size_t>(id)]);
    }
  }
  NodeId table = 4;
  EXPECT_EQ(BuildFixture().SubtreeNodes(table),
            (std::vector<NodeId>{4, 5, 6, 7}));
}

TEST(ArenaTreeTest, IsAncestorOrSelf) {
  ArenaTree tree = BuildFixture();
  EXPECT_TRUE(tree.IsAncestorOrSelf(tree.root(), 4));
  EXPECT_TRUE(tree.IsAncestorOrSelf(4, 4));
  EXPECT_TRUE(tree.IsAncestorOrSelf(1, 4));
  EXPECT_FALSE(tree.IsAncestorOrSelf(4, 1));
  EXPECT_FALSE(tree.IsAncestorOrSelf(2, 4));
}

TEST(ArenaTreeTest, AttributesAreLowercasedAndDecoded) {
  ArenaTree tree = ParseHtml("<a HREF='/x?a=1&amp;b=2' class=link>t</a>");
  NodeId a = tree.ResolvePath("html/body/a");
  ASSERT_NE(a, kInvalidNode);
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/x?a=1&b=2");
  EXPECT_EQ(tree.AttributeValue(a, "class"), "link");
  EXPECT_EQ(tree.AttributeValue(a, "id"), "");
  std::vector<Attribute> attributes = tree.Attributes(a);
  ASSERT_EQ(attributes.size(), 2u);
  EXPECT_EQ(attributes[0].name, "href");
  EXPECT_EQ(attributes[1].name, "class");
}

TEST(ArenaTreeTest, RepeatedBodyTagsMergeAttributesInSourceOrder) {
  ArenaTree tree = ParseHtml("<body id=a><p>x</p><body class=b>");
  std::vector<Attribute> attributes = tree.Attributes(1);
  ASSERT_EQ(attributes.size(), 2u);
  EXPECT_EQ(attributes[0].name, "id");
  EXPECT_EQ(attributes[1].name, "class");
}

TEST(ArenaTreeTest, CopyOwnsItsBytesAndIsPageSized) {
  std::string html = "<div data-qa=pagelet><p>one</p><p>two</p></div>";
  ArenaTree copy;
  {
    ArenaTree parsed = ParseHtml(html);
    copy = parsed;
  }
  // The copy reads nothing from the input or from the tree it came from.
  html.assign(html.size(), '#');
  NodeId div = copy.ResolvePath("html/body/div");
  ASSERT_NE(div, kInvalidNode);
  EXPECT_EQ(copy.AttributeValue(div, "data-qa"), "pagelet");
  EXPECT_EQ(copy.SubtreeText(div), "one two");
  EXPECT_EQ(copy.PathSymbols(div).size(), 3u);
  // One small block, not a parser-sized arena.
  EXPECT_EQ(copy.arena().block_count(), 1u);
  EXPECT_LE(copy.arena().bytes_reserved(), 1024u);
}

TEST(ArenaTreeTest, MoveKeepsViewsValid) {
  ArenaTree tree = ParseHtml("<p title='t'>moved text</p>");
  ArenaTree moved = std::move(tree);
  NodeId p = moved.ResolvePath("html/body/p");
  EXPECT_EQ(moved.SubtreeText(p), "moved text");
  EXPECT_EQ(moved.AttributeValue(p, "title"), "t");
  static_assert(std::is_nothrow_move_constructible_v<ArenaTree>);
}

}  // namespace
}  // namespace thor::html
