// Lexing rules of the one HTML parser, observed through the tree that
// ParseHtml builds: tag names, attribute names and values, text and entity
// decoding, comments, doctypes, raw-text elements, and EOF truncation.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/html/tag_tree.h"

namespace thor::html {
namespace {

/// The tree as markup, e.g. "<html><body><p>hi</p></body></html>".
std::string Shape(std::string_view html) { return Serialize(ParseHtml(html)); }

/// First node (preorder) carrying `tag`, or kInvalidNode.
NodeId First(const TagTree& tree, TagId tag) {
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).kind == NodeKind::kTag && tree.node(id).tag == tag) {
      return id;
    }
  }
  return kInvalidNode;
}

/// All content text of the page, space-joined in document order.
std::string Text(std::string_view html) {
  TagTree tree = ParseHtml(html);
  return tree.SubtreeText(tree.root());
}

TEST(TokenizerTest, SimpleStartEndText) {
  EXPECT_EQ(Shape("<p>hello</p>"), "<html><body><p>hello</p></body></html>");
}

TEST(TokenizerTest, TagNamesAreLowercased) {
  EXPECT_EQ(Shape("<TABLE><TR></TR></TABLE>"),
            "<html><body><table><tr></tr></table></body></html>");
}

TEST(TokenizerTest, QuotedAttributes) {
  TagTree tree = ParseHtml(R"(<a href="/x" title='hi there'>)");
  NodeId a = First(tree, Tag::kA);
  ASSERT_NE(a, kInvalidNode);
  const auto& attributes = tree.node(a).attributes;
  ASSERT_EQ(attributes.size(), 2u);
  EXPECT_EQ(attributes[0].name, "href");
  EXPECT_EQ(attributes[0].value, "/x");
  EXPECT_EQ(attributes[1].name, "title");
  EXPECT_EQ(attributes[1].value, "hi there");
}

TEST(TokenizerTest, UnquotedAndValuelessAttributes) {
  TagTree tree = ParseHtml("<input type=text disabled>");
  NodeId input = First(tree, Tag::kInput);
  ASSERT_NE(input, kInvalidNode);
  const auto& attributes = tree.node(input).attributes;
  ASSERT_EQ(attributes.size(), 2u);
  EXPECT_EQ(attributes[0].name, "type");
  EXPECT_EQ(attributes[0].value, "text");
  EXPECT_EQ(attributes[1].name, "disabled");
  EXPECT_EQ(attributes[1].value, "");
}

TEST(TokenizerTest, AttributeNamesLowercasedValuesDecoded) {
  TagTree tree = ParseHtml(R"(<a HREF="/s?a=1&amp;b=2">)");
  NodeId a = First(tree, Tag::kA);
  ASSERT_EQ(tree.node(a).attributes.size(), 1u);
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/s?a=1&b=2");
}

TEST(TokenizerTest, SelfClosingTag) {
  EXPECT_EQ(Shape("<br/><img src='x'/>"),
            "<html><body><br><img src=\"x\"></body></html>");
  // "/>" closes a non-void element at once: the text is its sibling.
  EXPECT_EQ(Shape("<div/>after"),
            "<html><body><div></div>after</body></html>");
}

TEST(TokenizerTest, TextEntitiesDecoded) {
  EXPECT_EQ(Text("<b>Tom &amp; Jerry</b>"), "Tom & Jerry");
}

TEST(TokenizerTest, Comments) {
  EXPECT_EQ(Shape("a<!-- hidden <b> -->b"), "<html><body>ab</body></html>");
  TagTree tree = ParseHtml("a<!-- hidden <b> -->b");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "a b");  // two content nodes
  EXPECT_EQ(First(tree, Tag::kB), kInvalidNode);
}

TEST(TokenizerTest, UnterminatedCommentConsumesRest) {
  EXPECT_EQ(Shape("x<!-- never closed <p>y"), "<html><body>x</body></html>");
}

TEST(TokenizerTest, Doctype) {
  EXPECT_EQ(ParseHtml("<!DOCTYPE html><html>").node_count(), 1);
  EXPECT_EQ(Shape("<!DOCTYPE html><html><p>x"),
            "<html><body><p>x</p></body></html>");
}

TEST(TokenizerTest, BogusConstructsBecomeComments) {
  EXPECT_EQ(ParseHtml("<?xml version='1.0'?><!foo>").node_count(), 1);
  EXPECT_EQ(Shape("<?xml version='1.0'?><!foo></3><p>y"),
            "<html><body><p>y</p></body></html>");
}

TEST(TokenizerTest, LiteralLessThanIsText) {
  EXPECT_EQ(Text("if a < b then"), "if a < b then");
}

TEST(TokenizerTest, ScriptContentIsRawText) {
  // The code is one raw-text run (no <b> or <d> tags), then dropped.
  EXPECT_EQ(Shape("<script>if (a<b && c>d) {}</script>after"),
            "<html><body><script></script>after</body></html>");
}

TEST(TokenizerTest, RawTextEndTagIsCaseInsensitive) {
  // The end tag closes the element: "x" is its sibling, not its text.
  EXPECT_EQ(Shape("<title>b { }</TiTlE>x"),
            "<html><head><title>b { }</title>x</head></html>");
  EXPECT_EQ(Shape("<STYLE>b { }</StYlE>x"),
            "<html><head><style></style>x</head></html>");
}

TEST(TokenizerTest, UnterminatedRawTextConsumesRest) {
  EXPECT_EQ(Shape("<title>var x = 1;<p>y"),
            "<html><head><title>var x = 1;&lt;p&gt;y</title></head></html>");
}

TEST(TokenizerTest, RawTextDoesNotStopAtPrefixCollision) {
  // "</titlex>" must not close <title>.
  EXPECT_EQ(Text("<title>a</titlex>b</title>"), "a</titlex>b");
}

TEST(TokenizerTest, TitleIsRawText) {
  TagTree tree = ParseHtml("<title>a <b> c</title>");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "a <b> c");
  EXPECT_EQ(First(tree, Tag::kB), kInvalidNode);
}

TEST(TokenizerTest, EndTagAttributesIgnored) {
  EXPECT_EQ(Shape("<p>x</p class='x'>y"),
            "<html><body><p>x</p>y</body></html>");
}

TEST(TokenizerTest, UnterminatedTagAtEof) {
  TagTree tree = ParseHtml("<a href=");
  NodeId a = First(tree, Tag::kA);
  ASSERT_NE(a, kInvalidNode);
  ASSERT_EQ(tree.node(a).attributes.size(), 1u);
  EXPECT_EQ(tree.node(a).attributes[0].name, "href");
}

TEST(TokenizerTest, EmptyInput) { EXPECT_EQ(ParseHtml("").node_count(), 1); }

// Garbage bytes must never crash or loop; they degrade into a tree.
class TokenizerFuzzLite : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerFuzzLite, ArbitraryBytesAlwaysTerminate) {
  uint64_t state = GetParam();
  std::string junk;
  for (int i = 0; i < 2048; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    char c = static_cast<char>((state >> 33) & 0xFF);
    junk.push_back(c);
  }
  TagTree tree = ParseHtml(junk);
  // Every node past the synthesized root, head and body costs input bytes.
  EXPECT_LE(tree.node_count(), static_cast<int>(junk.size()) + 3);
  EXPECT_LE(tree.node(tree.root()).content_length,
            static_cast<int>(junk.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenizerFuzzLite,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 12345));

// --- truncation regressions --------------------------------------------
// Hostile transports cut transfers at arbitrary byte offsets; every
// truncation artifact must degrade into a best-effort tree, never hang or
// read out of bounds.

TEST(TokenizerTruncationTest, UnterminatedTagAtEof) {
  TagTree tree = ParseHtml("<div class");
  NodeId div = First(tree, Tag::kDiv);
  ASSERT_NE(div, kInvalidNode);
  ASSERT_EQ(tree.node(div).attributes.size(), 1u);
  EXPECT_EQ(tree.node(div).attributes[0].name, "class");
  EXPECT_EQ(tree.node(div).attributes[0].value, "");
}

TEST(TokenizerTruncationTest, TagNameCutAtEof) {
  EXPECT_EQ(Shape("text<di"), "<html><body>text<di></di></body></html>");
}

TEST(TokenizerTruncationTest, AttributeQuoteCutMidValue) {
  TagTree tree = ParseHtml("<a href=\"/partial/pa");
  NodeId a = First(tree, Tag::kA);
  ASSERT_NE(a, kInvalidNode);
  ASSERT_EQ(tree.node(a).attributes.size(), 1u);
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/partial/pa");
}

TEST(TokenizerTruncationTest, AttributeCutBeforeValue) {
  TagTree tree = ParseHtml("<a href=");
  NodeId a = First(tree, Tag::kA);
  ASSERT_NE(a, kInvalidNode);
  ASSERT_EQ(tree.node(a).attributes.size(), 1u);
  EXPECT_EQ(tree.node(a).attributes[0].value, "");
}

TEST(TokenizerTruncationTest, EntityCutAtEof) {
  // Not a known entity prefix with terminator: kept literally.
  EXPECT_EQ(Text("price &am"), "price &am");
}

TEST(TokenizerTruncationTest, NumericEntityCutAtEof) {
  EXPECT_EQ(Text("x &#6"), "x \x06");
}

TEST(TokenizerTruncationTest, CommentCutAtEof) {
  EXPECT_EQ(ParseHtml("<!-- cut mid-comm").node_count(), 1);
}

TEST(TokenizerTruncationTest, EndTagCutAtEof) {
  EXPECT_EQ(Shape("<p>a</tabl"), "<html><body><p>a</p></body></html>");
}

TEST(TokenizerTruncationTest, RawTextCutAtEof) {
  EXPECT_EQ(Text("<title>var x = '<"), "var x = '<");
  EXPECT_EQ(Shape("<script>var x = '<"),
            "<html><body><script></script></body></html>");
}

TEST(TokenizerTruncationTest, EveryPrefixOfRealMarkupTerminates) {
  const std::string html =
      "<!doctype html><html><head><title>T&amp;T</title></head><body>"
      "<table class=\"r\"><tr><td><a href='/x?q=1'>A &lt; B</a></td></tr>"
      "</table><script>if (a < b) { f(); }</script><!-- tail --></body>";
  for (size_t cut = 0; cut <= html.size(); ++cut) {
    TagTree tree = ParseHtml(std::string_view(html).substr(0, cut));
    EXPECT_LE(tree.node_count(), static_cast<int>(cut) + 3) << "cut at " << cut;
  }
  TagTree full = ParseHtml(html);
  EXPECT_EQ(full.AttributeValue(First(full, Tag::kA), "href"), "/x?q=1");
  EXPECT_EQ(full.AttributeValue(First(full, Tag::kTable), "class"), "r");
}

}  // namespace
}  // namespace thor::html
