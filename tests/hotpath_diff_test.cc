// Golden harness for the extraction hot path. Every extraction response
// over a drifting two-site fleet (2 sites x 12 fresh queries x drift
// epochs 0-2 = 72 pages, hits and misses) is pinned bit for bit against
// tests/golden/hotpath_responses.txt: pagelet path, distance, budget,
// template index, exact-path flag, confidence and object texts. So is a
// digest of every parsed tree, uncapped and under each max_nodes cap, for
// both the parser's own tree and the page-sized copy learning keeps.
//
// The golden file was recorded when a second, independent reference
// implementation of the tree, locate and partition code still existed and
// agreed with the hot path on all of it. Regenerate it only after an
// intentional output change:
//   THOR_UPDATE_GOLDEN=1 ./build/tests/hotpath_diff_test
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/page.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "src/util/json.h"

#ifndef THOR_TESTDATA_DIR
#define THOR_TESTDATA_DIR "tests/golden"
#endif

namespace thor {
namespace {

// One drifting fleet plus a registry learned at epoch 0 — the corpus every
// test below runs over.
struct DiffWorld {
  std::vector<deepweb::DeepWebSite> fleet;
  core::TemplateRegistry registry;  ///< learned from fleet[0] at epoch 0

  static DiffWorld Make() {
    deepweb::FleetOptions options;
    options.num_sites = 2;
    options.seed = 11;
    options.drift.seed = 2026;  // enable deterministic template drift
    DiffWorld world{deepweb::GenerateSiteFleet(options), {}};
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = 1234;
    auto pages =
        core::ToPages(deepweb::BuildSiteSample(world.fleet[0], probe));
    auto result = core::RunThor(pages, core::ThorOptions{});
    EXPECT_TRUE(result.ok()) << result.status();
    world.registry = core::TemplateRegistry::Learn(pages, *result);
    EXPECT_FALSE(world.registry.empty());
    return world;
  }

  /// Fresh pages (never probed during learning) from every site at the
  /// fleet's current epoch: answer pages, single matches, no-match pages.
  std::vector<std::string> FreshHtml() {
    const char* queries[] = {"window", "garden", "silver", "market",
                             "bridge", "dream",  "castle", "violet",
                             "zzqqx",  "copper", "stone",  "river"};
    std::vector<std::string> html;
    for (auto& site : fleet) {
      for (const char* query : queries) {
        html.push_back(site.Query(query).html);
      }
    }
    return html;
  }
};

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

/// IEEE bits of a double, so the golden pins values bit for bit.
std::string Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return Hex64(bits);
}

/// FNV-1a 64 over one record per node, preorder: kind, tag, path symbols,
/// path string, attributes (or text), fanout, depth, subtree size and
/// content length.
std::string TreeDigest(const html::ArenaTree& tree) {
  uint64_t hash = 14695981039346656037ull;
  for (html::NodeId id : tree.Preorder()) {
    const html::ArenaNode& n = tree.node(id);
    std::ostringstream record;
    if (n.is_tag()) {
      record << 'T' << html::TagName(n.tag) << '|' << tree.PathSymbols(id)
             << '|' << tree.PathString(id);
      for (const html::Attribute& a : tree.Attributes(id)) {
        record << '|' << a.name << '=' << a.value;
      }
    } else {
      record << 'C' << n.text();
    }
    record << '|' << n.fanout << '|' << n.depth << '|' << n.subtree_size
           << '|' << n.content_length << '\n';
    for (unsigned char c : record.str()) {
      hash = (hash ^ c) * 1099511628211ull;
    }
  }
  return Hex64(hash);
}

std::string ResponseLine(int epoch, size_t page,
                         const core::HotExtractor::Result& r) {
  JsonWriter objects;
  objects.BeginArray();
  for (const std::string& object : r.objects) objects.String(object);
  objects.EndArray();
  const auto& located = r.located;
  return "epoch " + std::to_string(epoch) + " page " + std::to_string(page) +
         (r.hit ? " hit" : " miss") + " node=" + r.pagelet_path +
         " distance=" + Bits(located.distance) +
         " budget=" + Bits(located.budget) +
         " template=" + std::to_string(located.template_index) +
         " exact=" + (located.exact_path ? "1" : "0") +
         " confidence=" + Bits(located.Confidence()) +
         " objects=" + objects.str();
}

std::string TreeLine(int epoch, size_t page, int cap,
                     const html::ArenaTree& tree) {
  return "tree epoch " + std::to_string(epoch) + " page " +
         std::to_string(page) + " cap " + std::to_string(cap) + " " +
         TreeDigest(tree);
}

/// The golden document: per epoch and page, the extraction response and
/// the uncapped tree digest; then the epoch-0 pages under each cap. Tree
/// lines come from `tree_of(html, options)`.
template <typename TreeOf>
std::vector<std::string> GoldenLines(DiffWorld& world, TreeOf&& tree_of) {
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;
  std::vector<std::string> lines;
  std::vector<std::string> epoch0;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    std::vector<std::string> corpus = world.FreshHtml();
    if (epoch == 0) epoch0 = corpus;
    for (size_t i = 0; i < corpus.size(); ++i) {
      lines.push_back(
          ResponseLine(epoch, i, extractor.Extract(corpus[i], compiled)));
      lines.push_back(TreeLine(epoch, i, 0, tree_of(corpus[i], {})));
    }
  }
  for (int cap : {1, 5, 40, 200}) {
    html::ParseOptions options;
    options.max_nodes = cap;
    for (size_t i = 0; i < epoch0.size(); ++i) {
      lines.push_back(TreeLine(0, i, cap, tree_of(epoch0[i], options)));
    }
  }
  return lines;
}

std::string GoldenPath() {
  return std::string(THOR_TESTDATA_DIR) + "/hotpath_responses.txt";
}

std::vector<std::string> ReadGolden() {
  std::ifstream in(GoldenPath());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void ExpectLinesEqual(const std::vector<std::string>& golden,
                      const std::vector<std::string>& actual) {
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << GoldenPath()
      << "; regenerate with THOR_UPDATE_GOLDEN=1";
  ASSERT_EQ(golden.size(), actual.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i], actual[i]) << "golden line " << i + 1;
  }
}

// Responses and the serving parser's own trees against the golden file.
TEST(HotPathDiffTest, ResponsesAndTreesMatchGolden) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  std::vector<std::string> lines = GoldenLines(
      world, [&](const std::string& html, const html::ParseOptions& options)
                 -> const html::ArenaTree& {
        return parser.Parse(html, options);
      });
  if (std::getenv("THOR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  ExpectLinesEqual(ReadGolden(), lines);
  // The corpus must exercise both outcomes or the golden proves little.
  int hits = 0;
  int misses = 0;
  for (const std::string& line : lines) {
    hits += line.find(" hit node=") != std::string::npos;
    misses += line.find(" miss node=") != std::string::npos;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

// The page-sized copies that core::Page and deepweb::LabeledPage hold
// digest exactly like the parser's tree, caps included.
TEST(HotPathDiffTest, PageTreesMatchGolden) {
  DiffWorld world = DiffWorld::Make();
  std::vector<std::string> lines = GoldenLines(
      world, [](const std::string& html, const html::ParseOptions& options) {
        return core::Page::Parse("diff", html, options).tree;
      });
  ExpectLinesEqual(ReadGolden(), lines);
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    for (const std::string& html : world.FreshHtml()) {
      deepweb::QueryResponse response;
      response.html = html;
      deepweb::LabeledPage labeled = deepweb::LabelPage(response);
      EXPECT_EQ(TreeDigest(labeled.tree),
                TreeDigest(core::Page::Parse("diff", html).tree));
    }
  }
}

// Locating on a stored page tree (what thorcli apply does) gives exactly
// what locating on the serving parser's tree gives.
TEST(HotPathDiffTest, LocateOnPageTreeMatchesServingParse) {
  DiffWorld world = DiffWorld::Make();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor serving;
  core::HotExtractor stored;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    for (const std::string& html : world.FreshHtml()) {
      core::Page page = core::Page::Parse("diff", html);
      auto a = serving.Locate(serving.Parse(html), compiled);
      auto b = stored.Locate(page.tree, compiled);
      EXPECT_EQ(a.node, b.node);
      EXPECT_EQ(Bits(a.distance), Bits(b.distance));
      EXPECT_EQ(Bits(a.budget), Bits(b.budget));
      EXPECT_EQ(a.template_index, b.template_index);
      EXPECT_EQ(a.exact_path, b.exact_path);
    }
  }
}

// Service-level closure: the service's response stream, at 1 and 4
// worker threads, equals one built from HotExtractor::Extract (pinned by
// the golden file above) over the same store, across drift epochs.
TEST(HotPathDiffTest, ServiceResponsesIdenticalAcrossThreads) {
  namespace fs = std::filesystem;
  using Response = serve::ExtractionService::Response;
  DiffWorld world = DiffWorld::Make();
  fs::path dir = fs::path(::testing::TempDir()) / "thor_hotpath_diff";
  fs::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir.string());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Put("site0", world.registry).ok());
  const int64_t generation = store->Generation("site0");
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;

  auto serialize = [](const std::vector<Response>& responses) {
    JsonWriter json;
    json.BeginArray();
    for (const auto& r : responses) {
      json.BeginObject();
      json.Key("source").String(
          serve::ExtractionService::SourceName(r.source));
      json.Key("pagelet").String(r.pagelet_path);
      json.Key("confidence").Double(r.confidence);
      json.Key("generation").Int(r.generation);
      json.Key("objects").BeginArray();
      for (const auto& object : r.objects) json.String(object);
      json.EndArray();
      json.Key("error").String(r.error);
      json.EndObject();
    }
    json.EndArray();
    return json.str();
  };

  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    std::vector<serve::ExtractionService::Request> requests;
    std::vector<Response> expected;
    for (const std::string& html : world.FreshHtml()) {
      requests.push_back({"site0", html});
      Response response;
      response.generation = generation;
      auto hot = extractor.Extract(html, compiled);
      if (hot.hit) {
        response.source = serve::ExtractionService::Source::kTemplate;
        response.confidence = hot.located.Confidence();
        response.pagelet_path = hot.pagelet_path;
        response.objects = hot.objects;
      }
      expected.push_back(std::move(response));
    }
    const std::string reference = serialize(expected);
    for (int threads : {1, 4}) {
      serve::ServiceOptions options;
      options.threads = threads;
      serve::ExtractionService service(&*store, options);
      EXPECT_EQ(serialize(service.ExtractBatch(requests)), reference)
          << "epoch " << epoch << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace thor
