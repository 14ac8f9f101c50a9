#include "src/html/tag_tree.h"

#include <gtest/gtest.h>

#include "src/html/parser.h"

namespace thor::html {
namespace {

// Builds html > body > (div > text("hi"), table > tr > td > text("cell")).
TagTree BuildFixture() {
  TagTree tree;
  NodeId body = tree.AddTag(tree.root(), Tag::kBody);
  NodeId div = tree.AddTag(body, Tag::kDiv);
  tree.AddContent(div, "hi");
  NodeId table = tree.AddTag(body, Tag::kTable);
  NodeId tr = tree.AddTag(table, Tag::kTr);
  NodeId td = tree.AddTag(tr, Tag::kTd);
  tree.AddContent(td, "cell");
  tree.FinalizeDerived();
  return tree;
}

TEST(TagTreeTest, RootIsHtml) {
  TagTree tree;
  EXPECT_EQ(tree.node(tree.root()).tag, Tag::kHtml);
  EXPECT_EQ(tree.node(tree.root()).kind, NodeKind::kTag);
}

TEST(TagTreeTest, AddContentCollapsesWhitespace) {
  TagTree tree;
  NodeId id = tree.AddContent(tree.root(), "  a \n b  ");
  ASSERT_NE(id, kInvalidNode);
  EXPECT_EQ(tree.node(id).text, "a b");
}

TEST(TagTreeTest, AddContentSkipsWhitespaceOnly) {
  TagTree tree;
  EXPECT_EQ(tree.AddContent(tree.root(), "   \n\t "), kInvalidNode);
  EXPECT_EQ(tree.node_count(), 1);
}

TEST(TagTreeTest, FinalizeComputesDepth) {
  TagTree tree = BuildFixture();
  EXPECT_EQ(tree.Depth(tree.root()), 0);
  // body=1, div=2, table=2, tr=3, td=4, content=5.
  NodeId body = tree.node(tree.root()).children[0];
  EXPECT_EQ(tree.Depth(body), 1);
  NodeId table = tree.node(body).children[1];
  NodeId tr = tree.node(table).children[0];
  NodeId td = tree.node(tr).children[0];
  EXPECT_EQ(tree.Depth(td), 4);
}

TEST(TagTreeTest, FinalizeComputesSubtreeSizeAndContentLength) {
  TagTree tree = BuildFixture();
  // 8 nodes total: html, body, div, "hi", table, tr, td, "cell".
  EXPECT_EQ(tree.node_count(), 8);
  EXPECT_EQ(tree.SubtreeSize(tree.root()), 8);
  EXPECT_EQ(tree.node(tree.root()).content_length, 6);  // "hi"+"cell"
  NodeId body = tree.node(tree.root()).children[0];
  NodeId table = tree.node(body).children[1];
  EXPECT_EQ(tree.SubtreeSize(table), 4);
  EXPECT_EQ(tree.node(table).content_length, 4);
}

TEST(TagTreeTest, FanoutAndMaxFanout) {
  TagTree tree = BuildFixture();
  NodeId body = tree.node(tree.root()).children[0];
  EXPECT_EQ(tree.Fanout(body), 2);
  EXPECT_EQ(tree.MaxFanout(), 2);
}

TEST(TagTreeTest, PathTagsAndSymbols) {
  TagTree tree = BuildFixture();
  NodeId body = tree.node(tree.root()).children[0];
  NodeId table = tree.node(body).children[1];
  std::vector<TagId> path = tree.PathTags(table);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], Tag::kHtml);
  EXPECT_EQ(path[1], Tag::kBody);
  EXPECT_EQ(path[2], Tag::kTable);
  EXPECT_EQ(tree.PathSymbols(table).size(), 3u);
}

TEST(TagTreeTest, PathStringWithSiblingIndices) {
  TagTree tree;
  NodeId body = tree.AddTag(tree.root(), Tag::kBody);
  tree.AddTag(body, Tag::kTable);
  tree.AddTag(body, Tag::kDiv);
  NodeId table2 = tree.AddTag(body, Tag::kTable);
  tree.FinalizeDerived();
  EXPECT_EQ(tree.PathString(table2), "html/body/table[2]");
  NodeId div = tree.node(body).children[1];
  EXPECT_EQ(tree.PathString(div), "html/body/div");
}

TEST(TagTreeTest, ResolvePathRoundTrip) {
  TagTree tree = BuildFixture();
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind != NodeKind::kTag) continue;
    EXPECT_EQ(tree.ResolvePath(tree.PathString(id)), id)
        << tree.PathString(id);
  }
}

TEST(TagTreeTest, ResolvePathMissing) {
  TagTree tree = BuildFixture();
  EXPECT_EQ(tree.ResolvePath("html/body/ul"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath("html/body/table[9]"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath("body"), kInvalidNode);
  EXPECT_EQ(tree.ResolvePath(""), kInvalidNode);
}

TEST(TagTreeTest, SubtreeTextInDocumentOrder) {
  TagTree tree = BuildFixture();
  EXPECT_EQ(tree.SubtreeText(tree.root()), "hi cell");
  NodeId body = tree.node(tree.root()).children[0];
  NodeId table = tree.node(body).children[1];
  EXPECT_EQ(tree.SubtreeText(table), "cell");
}

TEST(TagTreeTest, SubtreeNodesPreorderAndComplete) {
  TagTree tree = BuildFixture();
  auto nodes = tree.SubtreeNodes(tree.root());
  EXPECT_EQ(static_cast<int>(nodes.size()), tree.node_count());
  EXPECT_EQ(nodes.front(), tree.root());
  // Preorder: every node appears after its parent.
  std::vector<int> position(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    position[static_cast<size_t>(nodes[i])] = static_cast<int>(i);
  }
  for (NodeId id : nodes) {
    NodeId parent = tree.node(id).parent;
    if (parent != kInvalidNode) {
      EXPECT_LT(position[static_cast<size_t>(parent)],
                position[static_cast<size_t>(id)]);
    }
  }
}

TEST(TagTreeTest, IsAncestorOrSelf) {
  TagTree tree = BuildFixture();
  NodeId body = tree.node(tree.root()).children[0];
  NodeId table = tree.node(body).children[1];
  NodeId div = tree.node(body).children[0];
  EXPECT_TRUE(tree.IsAncestorOrSelf(tree.root(), table));
  EXPECT_TRUE(tree.IsAncestorOrSelf(table, table));
  EXPECT_TRUE(tree.IsAncestorOrSelf(body, table));
  EXPECT_FALSE(tree.IsAncestorOrSelf(table, body));
  EXPECT_FALSE(tree.IsAncestorOrSelf(div, table));
}

TEST(TagTreeTest, AttributeValue) {
  TagTree tree;
  NodeId a = tree.AddTag(tree.root(), Tag::kA,
                         {{"href", "/x"}, {"class", "link"}});
  tree.FinalizeDerived();
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/x");
  EXPECT_EQ(tree.AttributeValue(a, "class"), "link");
  EXPECT_EQ(tree.AttributeValue(a, "id"), "");
}

TEST(TagTreeTest, CopyIsIndependent) {
  TagTree tree = BuildFixture();
  TagTree copy = tree;
  NodeId extra = copy.AddTag(copy.root(), Tag::kDiv);
  copy.FinalizeDerived();
  EXPECT_NE(copy.node_count(), tree.node_count());
  EXPECT_EQ(copy.Depth(extra), 1);
  EXPECT_EQ(tree.SubtreeText(tree.root()), "hi cell");
}

}  // namespace
}  // namespace thor::html
