#include "src/core/template_registry.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"

namespace thor::core {
namespace {

// Applies `registry` to a page the way serving does: compiled, through
// HotExtractor, the only code that applies a template.
html::NodeId Locate(const TemplateRegistry& registry,
                    const html::ArenaTree& tree) {
  HotExtractor extractor;
  return extractor.Locate(tree, CompiledTemplates::Compile(registry)).node;
}

struct Fixture {
  deepweb::DeepWebSite site;
  deepweb::SiteSample train;
  std::vector<Page> train_pages;
  TemplateRegistry registry;

  static Fixture Make(int site_id = 0) {
    deepweb::FleetOptions fleet_options;
    fleet_options.num_sites = site_id + 1;
    auto fleet = deepweb::GenerateSiteFleet(fleet_options);
    Fixture fixture{std::move(fleet[static_cast<size_t>(site_id)]), {}, {},
                    {}};
    deepweb::ProbeOptions probe;
    fixture.train = deepweb::BuildSiteSample(fixture.site, probe);
    fixture.train_pages = ToPages(fixture.train);
    auto result = RunThor(fixture.train_pages, ThorOptions{});
    EXPECT_TRUE(result.ok());
    fixture.registry =
        TemplateRegistry::Learn(fixture.train_pages, *result);
    return fixture;
  }
};

TEST(TemplateRegistryTest, LearnsTemplatesFromARun) {
  Fixture fixture = Fixture::Make();
  ASSERT_FALSE(fixture.registry.empty());
  for (const auto& tmpl : fixture.registry.templates()) {
    EXPECT_FALSE(tmpl.path_symbols.empty());
    EXPECT_GT(tmpl.support, 0);
    EXPECT_GE(tmpl.max_distance, 0.15);
    EXPECT_LE(tmpl.max_distance, 0.45);
  }
  // Strongest template first.
  const auto& templates = fixture.registry.templates();
  for (size_t i = 1; i < templates.size(); ++i) {
    EXPECT_GE(templates[i - 1].support, templates[i].support);
  }
}

TEST(TemplateRegistryTest, LocatesPageletsOnUnseenAnswerPages) {
  Fixture fixture = Fixture::Make();
  // Fresh queries the probe plan never issued.
  const char* fresh[] = {"window", "garden", "silver", "market", "bridge",
                         "dream",  "castle", "random", "violet", "copper"};
  int answers = 0;
  int located_correctly = 0;
  for (const char* query : fresh) {
    auto response = fixture.site.Query(query);
    deepweb::LabeledPage page = deepweb::LabelPage(response);
    if (page.pagelet_node == html::kInvalidNode) continue;
    ++answers;
    html::NodeId located = Locate(fixture.registry, page.tree);
    if (PageletMatches(page.tree, located, page.pagelet_node)) {
      ++located_correctly;
    }
  }
  ASSERT_GT(answers, 2);
  EXPECT_EQ(located_correctly, answers);
}

TEST(TemplateRegistryTest, RejectsNoMatchPages) {
  Fixture fixture = Fixture::Make();
  int no_match_pages = 0;
  int false_positives = 0;
  const char* nonsense[] = {"xqzzva", "vxobbq", "kzuuvq", "wqaadq"};
  for (const char* query : nonsense) {
    auto response = fixture.site.Query(query);
    if (response.page_class != deepweb::PageClass::kNoMatch) continue;
    deepweb::LabeledPage page = deepweb::LabelPage(response);
    ++no_match_pages;
    if (Locate(fixture.registry, page.tree) != html::kInvalidNode) {
      ++false_positives;
    }
  }
  ASSERT_GT(no_match_pages, 0);
  EXPECT_LE(false_positives, no_match_pages / 2);
}

TEST(TemplateRegistryTest, ExtractProducesObjects) {
  Fixture fixture = Fixture::Make();
  auto response = fixture.site.Query("electronics");
  if (response.page_class != deepweb::PageClass::kMultiMatch) {
    GTEST_SKIP() << "category query did not multi-match";
  }
  HotExtractor extractor;
  auto extraction = extractor.Extract(
      response.html, CompiledTemplates::Compile(fixture.registry));
  ASSERT_TRUE(extraction.hit);
  EXPECT_GE(extraction.objects.size(), 2u);
}

TEST(TemplateRegistryTest, EmptyRegistryLocatesNothing) {
  TemplateRegistry registry;
  html::ArenaTree tree =
      html::ParseHtml("<table><tr><td>content</td></tr></table>");
  EXPECT_EQ(Locate(registry, tree), html::kInvalidNode);
  EXPECT_TRUE(registry.empty());
}

TEST(TemplateRegistryTest, JsonRoundTripPreservesBehavior) {
  Fixture fixture = Fixture::Make();
  std::string json = fixture.registry.ToJson();
  auto restored = TemplateRegistry::FromJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->templates().size(),
            fixture.registry.templates().size());
  for (size_t i = 0; i < restored->templates().size(); ++i) {
    const auto& a = fixture.registry.templates()[i];
    const auto& b = restored->templates()[i];
    EXPECT_EQ(a.path_symbols, b.path_symbols);
    EXPECT_EQ(a.prototype.fanout, b.prototype.fanout);
    EXPECT_EQ(a.support, b.support);
    EXPECT_DOUBLE_EQ(a.max_distance, b.max_distance);
    EXPECT_EQ(a.stable_tags.entries(), b.stable_tags.entries());
    EXPECT_EQ(a.known_tags.size(), b.known_tags.size());
  }
  // Behavioral equivalence on fresh pages.
  for (const char* query : {"window", "garden", "silver", "xqzzva"}) {
    deepweb::LabeledPage page =
        deepweb::LabelPage(fixture.site.Query(query));
    EXPECT_EQ(Locate(fixture.registry, page.tree),
              Locate(*restored, page.tree))
        << query;
  }
}

TEST(TemplateRegistryTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(TemplateRegistry::FromJson("not json").ok());
  EXPECT_FALSE(TemplateRegistry::FromJson("{}").ok());
  EXPECT_FALSE(
      TemplateRegistry::FromJson(R"({"format":"other","templates":[]})")
          .ok());
  EXPECT_FALSE(TemplateRegistry::FromJson(
                   R"({"format":"thor-templates","templates":[{}]})")
                   .ok());
  auto empty = TemplateRegistry::FromJson(
      R"({"format":"thor-templates","version":1,"templates":[]})");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TemplateRegistryTest, FromJsonRejectsEveryTruncatedPrefix) {
  // The template store's corruption-recovery contract: a registry document
  // cut off at ANY byte (a torn write, a truncated download) must come
  // back as an error Result — no crash, no partially-built registry. A
  // hand-written document keeps this exhaustive sweep fast while covering
  // every structural position (mid-key, mid-string, mid-number, mid-array).
  const std::string document =
      R"({"format":"thor-templates","version":1,"templates":[)"
      R"({"path_symbols":"html>body>table",)"
      R"("prototype":{"path_symbols":"html>body>table","fanout":4,)"
      R"("depth":3,"num_nodes":20},"support":5,"max_distance":0.35,)"
      R"("min_stable_match":0.93,"stable_tags":[["html",1],["body",1]],)"
      R"("known_tags":["html","body","table","tr","td"]}]})";
  auto complete = TemplateRegistry::FromJson(document);
  ASSERT_TRUE(complete.ok()) << complete.status();
  ASSERT_EQ(complete->templates().size(), 1u);
  for (size_t len = 0; len < document.size(); ++len) {
    auto truncated = TemplateRegistry::FromJson(document.substr(0, len));
    EXPECT_FALSE(truncated.ok()) << "prefix of length " << len
                                 << " produced a registry";
  }
  // The same holds for a registry produced by a real pipeline run.
  Fixture fixture = Fixture::Make();
  const std::string learned = fixture.registry.ToJson();
  for (size_t len = 0; len < learned.size();
       len += std::max<size_t>(1, learned.size() / 257)) {
    EXPECT_FALSE(TemplateRegistry::FromJson(learned.substr(0, len)).ok())
        << "prefix of length " << len << "/" << learned.size();
  }
}

TEST(TemplateRegistryTest, TemplatesTransferAcrossFreshProbeRounds) {
  // Learn on one probe seed, apply to pages probed with another: the
  // maintenance scenario of a deep-web index re-crawling a known site.
  Fixture fixture = Fixture::Make(1);
  deepweb::ProbeOptions probe;
  probe.seed = 555777;
  deepweb::SiteSample fresh = deepweb::BuildSiteSample(fixture.site, probe);
  PrecisionRecall pr;
  for (const auto& page : fresh.pages) {
    html::NodeId located = Locate(fixture.registry, page.tree);
    if (page.pagelet_node != html::kInvalidNode) ++pr.truth;
    if (located == html::kInvalidNode) continue;
    ++pr.extracted;
    if (PageletMatches(page.tree, located, page.pagelet_node)) ++pr.correct;
  }
  EXPECT_GT(pr.Recall(), 0.9);
  EXPECT_GT(pr.Precision(), 0.8);
}

}  // namespace
}  // namespace thor::core
