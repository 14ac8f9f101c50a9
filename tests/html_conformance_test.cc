// Conformance-style coverage of the HTML substrate: the messy constructs
// 2003-era deep-web pages actually contained, pinned as behavior tests.

#include <gtest/gtest.h>

#include "src/html/parser.h"
#include "src/html/serializer.h"

namespace thor::html {
namespace {

std::string Text(const char* html) {
  ArenaTree tree = ParseHtml(html);
  return tree.SubtreeText(tree.root());
}

int CountTag(const ArenaTree& tree, TagId tag) {
  int count = 0;
  for (NodeId id : tree.Preorder()) {
    if (tree.node(id).tag == tag) ++count;
  }
  return count;
}

TEST(HtmlConformanceTest, DuplicateAttributesAllKept) {
  ArenaTree tree = ParseHtml("<a href='/first' href='/second'>x</a>");
  NodeId a = tree.ResolvePath("html/body/a");
  ASSERT_NE(a, kInvalidNode);
  // First occurrence wins for lookup.
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/first");
  EXPECT_EQ(tree.Attributes(a).size(), 2u);
}

TEST(HtmlConformanceTest, EqualsWithoutValue) {
  ArenaTree tree = ParseHtml("<input type= >text");
  NodeId input = tree.ResolvePath("html/body/input");
  ASSERT_NE(input, kInvalidNode);
  // "type=" consumes the '>' ... no: unquoted value stops at '>'.
  EXPECT_EQ(tree.AttributeValue(input, "type"), "");
}

TEST(HtmlConformanceTest, QuoteInsideUnquotedValue) {
  ArenaTree tree = ParseHtml("<a href=/x\"y>t</a>");
  NodeId a = tree.ResolvePath("html/body/a");
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/x\"y");
}

TEST(HtmlConformanceTest, EntityInAttributeVsText) {
  ArenaTree tree =
      ParseHtml("<a href=\"/s?a=1&amp;b=2\">x &amp; y</a>");
  NodeId a = tree.ResolvePath("html/body/a");
  EXPECT_EQ(tree.AttributeValue(a, "href"), "/s?a=1&b=2");
  EXPECT_EQ(tree.SubtreeText(a), "x & y");
}

TEST(HtmlConformanceTest, NumericEntityInText) {
  EXPECT_EQ(Text("<p>&#72;&#105;</p>"), "Hi");
}

TEST(HtmlConformanceTest, NestedListsKeepStructure) {
  ArenaTree tree = ParseHtml(
      "<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>");
  NodeId outer = tree.ResolvePath("html/body/ul");
  ASSERT_NE(outer, kInvalidNode);
  // Outer list has two <li> children (a with nested list, b).
  int li_children = 0;
  for (NodeId child : tree.Children(outer)) {
    if (tree.node(child).tag == Tag::kLi) ++li_children;
  }
  EXPECT_EQ(li_children, 2);
  EXPECT_EQ(CountTag(tree, Tag::kUl), 2);
  EXPECT_EQ(CountTag(tree, Tag::kLi), 4);
}

TEST(HtmlConformanceTest, SelectOptionImpliedEnds) {
  ArenaTree tree = ParseHtml(
      "<select><option>one<option>two<option>three</select>");
  EXPECT_EQ(CountTag(tree, Tag::kOption), 3);
  NodeId select = tree.ResolvePath("html/body/select");
  EXPECT_EQ(tree.Fanout(select), 3);
}

TEST(HtmlConformanceTest, TextDirectlyInsideTableIsKept) {
  // Content misplaced in <table> still lands in the tree (no foster
  // parenting; Tidy-style behavior keeps it in place).
  EXPECT_EQ(Text("<table>stray<tr><td>cell</td></tr></table>"),
            "stray cell");
}

TEST(HtmlConformanceTest, NestedTables) {
  ArenaTree tree = ParseHtml(
      "<table><tr><td><table><tr><td>inner</td></tr></table>"
      "</td></tr></table>");
  EXPECT_EQ(CountTag(tree, Tag::kTable), 2);
  NodeId inner = tree.ResolvePath("html/body/table/tr/td/table/tr/td");
  ASSERT_NE(inner, kInvalidNode);
  EXPECT_EQ(tree.SubtreeText(inner), "inner");
}

TEST(HtmlConformanceTest, StrayTdEndTagInsideNestedTable) {
  ArenaTree tree = ParseHtml(
      "<table><tr><td><table><tr><td>x</td></tr></table></td>"
      "</tr><tr><td>y</td></tr></table>");
  NodeId outer = tree.ResolvePath("html/body/table");
  ASSERT_NE(outer, kInvalidNode);
  EXPECT_EQ(tree.Fanout(outer), 2);  // both outer rows survive
}

TEST(HtmlConformanceTest, LegacyCenterFontMarkup) {
  ArenaTree tree = ParseHtml(
      "<center><font size=\"+1\" color=\"red\"><b>SALE</b></font>"
      "</center>");
  EXPECT_EQ(CountTag(tree, Tag::kCenter), 1);
  EXPECT_EQ(CountTag(tree, Tag::kFont), 1);
  EXPECT_EQ(Text("<center><font><b>SALE</b></font></center>"), "SALE");
}

TEST(HtmlConformanceTest, SelfClosingDivActsEmpty) {
  ArenaTree tree = ParseHtml("<div/>after");
  NodeId body = tree.ResolvePath("html/body");
  // The div takes no children; "after" is a sibling.
  NodeId div = tree.ResolvePath("html/body/div");
  ASSERT_NE(div, kInvalidNode);
  EXPECT_EQ(tree.Fanout(div), 0);
  EXPECT_EQ(tree.SubtreeText(body), "after");
}

TEST(HtmlConformanceTest, CdataBecomesComment) {
  EXPECT_EQ(Text("a<![CDATA[hidden]]>b"), "a b");
}

TEST(HtmlConformanceTest, ConditionalCommentStripped) {
  EXPECT_EQ(Text("x<!--[if IE]><p>ie only</p><![endif]-->y"), "x y");
}

TEST(HtmlConformanceTest, CommentInsideScriptStaysRaw) {
  // The classic 1990s script-hiding idiom.
  ArenaTree tree = ParseHtml(
      "<script><!--\nvar x = 1;\n// --></script><p>shown</p>");
  EXPECT_EQ(tree.SubtreeText(tree.root()), "shown");
  EXPECT_EQ(CountTag(tree, Tag::kScript), 1);
}

TEST(HtmlConformanceTest, Utf8TextPassesThrough) {
  EXPECT_EQ(Text("<p>caf\xC3\xA9 \xE2\x82\xAC 5</p>"),
            "caf\xC3\xA9 \xE2\x82\xAC 5");
}

TEST(HtmlConformanceTest, NulBytesDoNotBreakParsing) {
  std::string html = "<p>a";
  html.push_back('\0');
  html += "b</p>";
  ArenaTree tree = ParseHtml(html);
  EXPECT_EQ(CountTag(tree, Tag::kP), 1);
}

TEST(HtmlConformanceTest, LeadingEndTagsIgnored) {
  EXPECT_EQ(Text("</div></p></table><p>real</p>"), "real");
}

TEST(HtmlConformanceTest, UppercaseEverything) {
  ArenaTree tree = ParseHtml(
      "<TABLE BORDER=\"1\"><TR><TD ALIGN=CENTER>X</TD></TR></TABLE>");
  NodeId td = tree.ResolvePath("html/body/table/tr/td");
  ASSERT_NE(td, kInvalidNode);
  EXPECT_EQ(tree.AttributeValue(td, "align"), "CENTER");
}

TEST(HtmlConformanceTest, WhitespaceOnlyTextNodesDropped) {
  ArenaTree tree = ParseHtml("<div>\n   <p>x</p>\n   </div>");
  NodeId div = tree.ResolvePath("html/body/div");
  EXPECT_EQ(tree.Fanout(div), 1);
}

TEST(HtmlConformanceTest, FramesetPages) {
  ArenaTree tree = ParseHtml(
      "<frameset cols=\"20%,80%\"><frame src=\"nav.html\">"
      "<frame src=\"main.html\"></frameset>");
  EXPECT_EQ(CountTag(tree, Tag::kFrameset), 1);
  EXPECT_EQ(CountTag(tree, Tag::kFrame), 2);
}

TEST(HtmlConformanceTest, VeryLongAttributeValue) {
  std::string html = "<a href=\"/";
  html.append(100000, 'x');
  html += "\">link</a>";
  ArenaTree tree = ParseHtml(html);
  NodeId a = tree.ResolvePath("html/body/a");
  ASSERT_NE(a, kInvalidNode);
  EXPECT_EQ(tree.AttributeValue(a, "href").size(), 100001u);
}

TEST(HtmlConformanceTest, ManySiblingsStayFlat) {
  std::string html = "<ul>";
  for (int i = 0; i < 2000; ++i) html += "<li>item</li>";
  html += "</ul>";
  ArenaTree tree = ParseHtml(html);
  NodeId ul = tree.ResolvePath("html/body/ul");
  EXPECT_EQ(tree.Fanout(ul), 2000);
  EXPECT_EQ(tree.Depth(tree.node(ul).last_child), 3);
}

TEST(HtmlConformanceTest, RoundTripOfEveryConformanceCase) {
  const char* cases[] = {
      "<a href='/first' href='/second'>x</a>",
      "<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>",
      "<select><option>one<option>two</select>",
      "<table>stray<tr><td>cell</td></tr></table>",
      "<center><font size='+1'><b>SALE</b></font></center>",
      "<TABLE BORDER='1'><TR><TD>X</TD></TR></TABLE>",
      "<dl><dt>a<dd>1<dt>b<dd>2</dl>",
  };
  for (const char* html : cases) {
    ArenaTree first = ParseHtml(html);
    ArenaTree second = ParseHtml(Serialize(first));
    EXPECT_EQ(first.SubtreeSize(first.root()),
              second.SubtreeSize(second.root()))
        << html;
    EXPECT_EQ(first.SubtreeText(first.root()),
              second.SubtreeText(second.root()))
        << html;
  }
}

}  // namespace
}  // namespace thor::html
