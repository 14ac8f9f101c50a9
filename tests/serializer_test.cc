#include "src/html/serializer.h"

#include <gtest/gtest.h>

#include "src/deepweb/site_generator.h"
#include "src/html/parser.h"

namespace thor::html {
namespace {

// Structural isomorphism: same tags, attributes, text and shape.
void ExpectIsomorphic(const ArenaTree& a, NodeId na, const ArenaTree& b,
                      NodeId nb) {
  const ArenaNode& x = a.node(na);
  const ArenaNode& y = b.node(nb);
  ASSERT_EQ(x.is_tag(), y.is_tag());
  if (!x.is_tag()) {
    EXPECT_EQ(x.text(), y.text());
    return;
  }
  EXPECT_EQ(x.tag, y.tag);
  std::vector<Attribute> xa = a.Attributes(na);
  std::vector<Attribute> ya = b.Attributes(nb);
  ASSERT_EQ(xa.size(), ya.size()) << "at " << a.PathString(na);
  for (size_t i = 0; i < xa.size(); ++i) {
    EXPECT_EQ(xa[i].name, ya[i].name);
    EXPECT_EQ(xa[i].value, ya[i].value);
  }
  ASSERT_EQ(x.fanout, y.fanout) << "at " << a.PathString(na);
  for (NodeId cx = x.first_child, cy = y.first_child; cx != kInvalidNode;
       cx = a.node(cx).next_sibling, cy = b.node(cy).next_sibling) {
    ExpectIsomorphic(a, cx, b, cy);
  }
}

TEST(SerializerTest, BasicOutput) {
  ArenaTree tree = ParseHtml("<body><p class=x>hello<br></p></body>");
  EXPECT_EQ(Serialize(tree),
            "<html><body><p class=\"x\">hello<br></p></body></html>");
}

TEST(SerializerTest, VoidElementsGetNoEndTag) {
  ArenaTree tree = ParseHtml("<div><img src='a'><hr></div>");
  std::string out = Serialize(tree);
  EXPECT_EQ(out.find("</img>"), std::string::npos);
  EXPECT_EQ(out.find("</hr>"), std::string::npos);
  EXPECT_NE(out.find("<img src=\"a\">"), std::string::npos);
}

TEST(SerializerTest, EscapesTextAndAttributes) {
  ArenaTree tree =
      ParseHtml("<p title='a&lt;b>&quot;c\"'>x &lt; y &amp; z</p>");
  std::string out = Serialize(tree);
  EXPECT_NE(out.find("title=\"a&lt;b&gt;&quot;c&quot;\""), std::string::npos);
  EXPECT_NE(out.find("x &lt; y &amp; z"), std::string::npos);
}

TEST(SerializerTest, SubtreeSerialization) {
  ArenaTree tree = ParseHtml("<div><p>a</p></div>");
  NodeId div = tree.ResolvePath("html/body/div");
  EXPECT_EQ(Serialize(tree, div), "<div><p>a</p></div>");
}

TEST(SerializerTest, PrettyPrintingIndents) {
  ArenaTree tree = ParseHtml("<div><p>a</p></div>");
  SerializeOptions options;
  options.pretty = true;
  std::string out = Serialize(tree, options);
  EXPECT_NE(out.find("\n"), std::string::npos);
  EXPECT_NE(out.find("  "), std::string::npos);
}

TEST(SerializerTest, RoundTripSimpleDocument) {
  const char* html =
      "<html><head><title>T</title></head><body>"
      "<div class=\"main\"><p>one</p><p>two &amp; three</p>"
      "<table><tr><td>cell</td></tr></table></div></body></html>";
  ArenaTree first = ParseHtml(html);
  ArenaTree second = ParseHtml(Serialize(first));
  ExpectIsomorphic(first, first.root(), second, second.root());
}

TEST(SerializerTest, RoundTripGeneratedDeepWebPages) {
  // Property: parse -> serialize -> parse is structure-preserving for every
  // page class the simulator emits.
  deepweb::FleetOptions options;
  options.num_sites = 3;
  auto fleet = deepweb::GenerateSiteFleet(options);
  const char* queries[] = {"music", "love", "xzzqv", "history"};
  for (const auto& site : fleet) {
    for (const char* q : queries) {
      auto response = site.Query(q);
      ArenaTree first = ParseHtml(response.html);
      ArenaTree second = ParseHtml(Serialize(first));
      ExpectIsomorphic(first, first.root(), second, second.root());
    }
  }
}

TEST(SerializerTest, PrettyRoundTripPreservesStructure) {
  ArenaTree first =
      ParseHtml("<ul><li>a</li><li>b <b>bold</b></li></ul>");
  SerializeOptions options;
  options.pretty = true;
  ArenaTree second = ParseHtml(Serialize(first, options));
  // Text nodes gain surrounding whitespace in pretty mode; compare text
  // after whitespace collapse via SubtreeText.
  EXPECT_EQ(first.SubtreeText(first.root()),
            second.SubtreeText(second.root()));
}

}  // namespace
}  // namespace thor::html
