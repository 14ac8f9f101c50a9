// core::Page and deepweb::LabeledPage own their tag trees outright: the
// tree's content text and attribute bytes live in the tree, not in the
// input string or the parser that built it. Growing a vector of pages
// through reallocations moves every tree (and every page's html string,
// whose bytes relocate for short, inline-stored strings), and each node's
// text and every data-qa marker must still read back as a fresh parse of
// the page's html says. Under ASan a view left pointing at a moved or
// freed buffer fails loudly.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/page.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/deepweb/site_template.h"
#include "src/html/arena_parser.h"

namespace thor {
namespace {

/// Fleet answer, no-match and error pages, plus short pages whose html is
/// stored inline in the std::string and so moves with it.
std::vector<std::string> Corpus() {
  deepweb::FleetOptions options;
  options.num_sites = 2;
  options.seed = 11;
  std::vector<deepweb::DeepWebSite> fleet =
      deepweb::GenerateSiteFleet(options);
  std::vector<std::string> corpus = {
      "<p a=b>x</p>", "<i data-qa=object>y</i>", "<b c='&amp;'>z</b>"};
  for (auto& site : fleet) {
    for (const char* query : {"window", "garden", "zzqqx", "river", "stone"}) {
      corpus.push_back(site.Query(query).html);
    }
  }
  return corpus;
}

/// Every node's text and every attribute of `tree` equal those of a fresh
/// parse of `html`.
void ExpectMatchesFreshParse(const html::ArenaTree& tree,
                             const std::string& html) {
  html::HotParser parser;
  const html::ArenaTree& fresh = parser.Parse(html);
  ASSERT_EQ(tree.node_count(), fresh.node_count());
  for (html::NodeId id = 0; id < tree.node_count(); ++id) {
    ASSERT_EQ(tree.node(id).text(), fresh.node(id).text()) << id;
    ASSERT_EQ(tree.PathSymbols(id), fresh.PathSymbols(id)) << id;
    std::vector<html::Attribute> a = tree.Attributes(id);
    std::vector<html::Attribute> b = fresh.Attributes(id);
    ASSERT_EQ(a.size(), b.size()) << id;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].name, b[i].name) << id;
      ASSERT_EQ(a[i].value, b[i].value) << id;
    }
  }
}

/// Pushes one page per corpus entry without reserving, and counts the
/// reallocations that moved the pages already stored.
template <typename PageT, typename MakeFn>
std::vector<PageT> Grow(const std::vector<std::string>& corpus,
                        MakeFn&& make, int* reallocations) {
  std::vector<PageT> pages;
  *reallocations = 0;
  for (const std::string& html : corpus) {
    size_t capacity = pages.capacity();
    pages.push_back(make(std::string(html)));  // the source string dies here
    if (pages.capacity() != capacity && pages.size() > 1) ++*reallocations;
  }
  return pages;
}

TEST(PageOwnershipTest, PagesSurviveVectorReallocation) {
  const std::vector<std::string> corpus = Corpus();
  int reallocations = 0;
  std::vector<core::Page> pages = Grow<core::Page>(
      corpus,
      [](std::string html) { return core::Page::Parse("u", std::move(html)); },
      &reallocations);
  ASSERT_GE(reallocations, 3);
  for (size_t i = 0; i < pages.size(); ++i) {
    SCOPED_TRACE("page " + std::to_string(i));
    EXPECT_EQ(pages[i].html, corpus[i]);
    ExpectMatchesFreshParse(pages[i].tree, corpus[i]);
  }
  // Copies (RunThor's degraded-page filter, core::ToPages) own their bytes
  // too, independently of the page they came from.
  std::vector<core::Page> copies(pages.begin(), pages.end());
  pages.clear();
  pages.shrink_to_fit();
  for (size_t i = 0; i < copies.size(); ++i) {
    ExpectMatchesFreshParse(copies[i].tree, corpus[i]);
  }
}

TEST(PageOwnershipTest, LabeledPagesKeepTextAndMarkersAcrossReallocation) {
  const std::vector<std::string> corpus = Corpus();
  int reallocations = 0;
  std::vector<deepweb::LabeledPage> pages = Grow<deepweb::LabeledPage>(
      corpus,
      [](std::string html) {
        deepweb::QueryResponse response;
        response.html = std::move(html);
        return deepweb::LabelPage(response);
      },
      &reallocations);
  ASSERT_GE(reallocations, 3);
  int pagelets = 0;
  int objects = 0;
  for (size_t i = 0; i < pages.size(); ++i) {
    SCOPED_TRACE("page " + std::to_string(i));
    const deepweb::LabeledPage& page = pages[i];
    ExpectMatchesFreshParse(page.tree, corpus[i]);
    // Every data-qa marker reads back and agrees with the labels.
    html::NodeId pagelet = html::kInvalidNode;
    std::vector<html::NodeId> object_nodes;
    for (html::NodeId id : page.tree.Preorder()) {
      std::string marker =
          page.tree.AttributeValue(id, deepweb::kQaMarkerAttr);
      if (marker == deepweb::kQaPageletValue) pagelet = id;
      if (marker == deepweb::kQaObjectValue) object_nodes.push_back(id);
    }
    EXPECT_EQ(page.pagelet_node, pagelet);
    EXPECT_EQ(page.object_nodes, object_nodes);
    pagelets += pagelet != html::kInvalidNode;
    objects += static_cast<int>(object_nodes.size());
  }
  // The corpus carries both kinds of marker, or the check proves nothing.
  EXPECT_GT(pagelets, 0);
  EXPECT_GT(objects, 0);
}

}  // namespace
}  // namespace thor
