// Differential harness for the extraction hot path: the arena pipeline
// (HotParser / HotExtractor / CompiledTemplates) must be *bit-identical*
// to the reference composition (ParseHtml / TagCountVector /
// LocateDetailed / PartitionObjects) on every page a deepweb fleet can
// produce — fresh answer pages, no-match pages, and three template-drift
// epochs.
//
// The hot path is the only serving path and the reference composition is
// what learning runs on, so any observable divergence is a bug in the hot
// path, full stop.
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/object_partition.h"
#include "src/core/page.h"
#include "src/core/signature_builder.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/arena_tree.h"
#include "src/serve/extraction_service.h"
#include "src/serve/template_store.h"
#include "src/util/json.h"

namespace thor {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// One drifting fleet plus a registry learned at epoch 0 — the corpus every
// differential test below runs over.
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
  /// fleet's current epoch: answer pages, single matches, no-match pages —
  /// the diff must hold on all of them, misses included.
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

/// Preorder node ids of an ArenaTree via its child/sibling links (the hot
/// tree has no materialized child vectors to walk).
std::vector<html::NodeId> ArenaPreorder(const html::ArenaTree& tree) {
  std::vector<html::NodeId> order;
  if (tree.node_count() == 0) return order;
  html::NodeId cur = tree.root();
  while (cur != html::kInvalidNode) {
    order.push_back(cur);
    const html::ArenaNode& n = tree.node(cur);
    if (n.first_child != html::kInvalidNode) {
      cur = n.first_child;
      continue;
    }
    while (cur != html::kInvalidNode &&
           tree.node(cur).next_sibling == html::kInvalidNode) {
      cur = tree.node(cur).parent;
    }
    if (cur != html::kInvalidNode) cur = tree.node(cur).next_sibling;
  }
  return order;
}

void ExpectTreesIdentical(const html::TagTree& legacy,
                          const html::ArenaTree& hot,
                          const std::string& context) {
  SCOPED_TRACE(context);
  std::vector<html::NodeId> legacy_order = legacy.Preorder();
  std::vector<html::NodeId> hot_order = ArenaPreorder(hot);
  ASSERT_EQ(legacy_order.size(), hot_order.size());
  for (size_t i = 0; i < legacy_order.size(); ++i) {
    const html::Node& l = legacy.node(legacy_order[i]);
    const html::ArenaNode& h = hot.node(hot_order[i]);
    SCOPED_TRACE("preorder index " + std::to_string(i));
    ASSERT_EQ(l.kind == html::NodeKind::kTag, h.is_tag());
    if (l.kind == html::NodeKind::kTag) {
      EXPECT_EQ(l.tag, h.tag);
      EXPECT_EQ(legacy.PathSymbols(legacy_order[i]),
                hot.path(h.path_id));
      EXPECT_EQ(legacy.PathString(legacy_order[i]),
                hot.PathString(hot_order[i]));
    } else {
      EXPECT_EQ(std::string_view(l.text), h.text());
    }
    EXPECT_EQ(legacy.Fanout(legacy_order[i]), h.fanout);
    EXPECT_EQ(legacy.Depth(legacy_order[i]), h.depth);
    EXPECT_EQ(legacy.SubtreeSize(legacy_order[i]), h.subtree_size);
    EXPECT_EQ(l.content_length, h.content_length);
  }
}

TEST(HotPathDiffTest, TreesMatchNodeByNodeAcrossDriftEpochs) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    ASSERT_FALSE(corpus.empty());
    for (size_t i = 0; i < corpus.size(); ++i) {
      core::Page page = core::Page::Parse("diff", corpus[i]);
      const html::ArenaTree& hot = parser.Parse(corpus[i]);
      ExpectTreesIdentical(page.tree, hot,
                           "epoch " + std::to_string(epoch) + " page " +
                               std::to_string(i));
    }
  }
}

TEST(HotPathDiffTest, MaxNodesCapProducesIdenticalTruncation) {
  DiffWorld world = DiffWorld::Make();
  html::HotParser parser;
  auto corpus = world.FreshHtml();
  html::ParseOptions options;
  for (int cap : {1, 5, 40, 200}) {
    options.max_nodes = cap;
    for (size_t i = 0; i < corpus.size(); ++i) {
      core::Page page = core::Page::Parse("diff", corpus[i], options);
      const html::ArenaTree& hot = parser.Parse(corpus[i], options);
      ExpectTreesIdentical(page.tree, hot,
                           "cap " + std::to_string(cap) + " page " +
                               std::to_string(i));
    }
  }
}

// The fused tokenize+count signature must equal signature_builder's
// two-pass TagCountVector down to the last weight bit: clustering and the
// stable-tag gate both hang off these vectors.
TEST(HotPathDiffTest, FusedSignaturesBitIdenticalToTagCountVector) {
  DiffWorld world = DiffWorld::Make();
  core::HotExtractor extractor;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    for (const std::string& html : world.FreshHtml()) {
      core::Page page = core::Page::Parse("diff", html);
      extractor.Parse(html);
      ir::SparseVector legacy = core::TagCountVector(page.tree);
      ir::SparseVector hot = extractor.PageTagCounts();
      ASSERT_EQ(legacy.entries().size(), hot.entries().size());
      for (size_t e = 0; e < legacy.entries().size(); ++e) {
        EXPECT_EQ(legacy.entries()[e].id, hot.entries()[e].id);
        EXPECT_TRUE(BitEqual(legacy.entries()[e].weight,
                             hot.entries()[e].weight));
      }
      EXPECT_TRUE(BitEqual(legacy.Norm(), hot.Norm()));
    }
  }
}

// LocateDetailed: node (compared by path address — the two trees number
// nodes differently), distance, budget, template index, exact-path flag,
// and the derived confidence must all be bit-identical, at every epoch.
TEST(HotPathDiffTest, LocateDetailedBitIdenticalAcrossDriftEpochs) {
  DiffWorld world = DiffWorld::Make();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;
  int hits = 0;
  int misses = 0;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " page " +
                   std::to_string(i));
      core::Page page = core::Page::Parse("diff", corpus[i]);
      auto legacy = world.registry.LocateDetailed(page.tree);
      const html::ArenaTree& tree = extractor.Parse(corpus[i]);
      auto hot = extractor.Locate(tree, compiled);
      ASSERT_EQ(legacy.node == html::kInvalidNode,
                hot.node == html::kInvalidNode);
      if (legacy.node != html::kInvalidNode) {
        ++hits;
        EXPECT_EQ(page.tree.PathString(legacy.node),
                  tree.PathString(hot.node));
      } else {
        ++misses;
      }
      EXPECT_TRUE(BitEqual(legacy.distance, hot.distance))
          << legacy.distance << " vs " << hot.distance;
      EXPECT_TRUE(BitEqual(legacy.budget, hot.budget));
      EXPECT_EQ(legacy.template_index, hot.template_index);
      EXPECT_EQ(legacy.exact_path, hot.exact_path);
      EXPECT_TRUE(BitEqual(legacy.Confidence(), hot.Confidence()));
    }
  }
  // The corpus must exercise both outcomes or the diff proves nothing.
  EXPECT_GT(hits, 0);
  EXPECT_GT(misses, 0);
}

// Full serving extraction: pagelet path + partitioned object texts.
TEST(HotPathDiffTest, ExtractionOutputIdenticalToLegacyPipeline) {
  DiffWorld world = DiffWorld::Make();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(world.registry);
  core::HotExtractor extractor;
  for (int epoch : {0, 1, 2}) {
    deepweb::SetFleetEpoch(&world.fleet, epoch);
    auto corpus = world.FreshHtml();
    for (size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("epoch " + std::to_string(epoch) + " page " +
                   std::to_string(i));
      auto hot = extractor.Extract(corpus[i], compiled);
      // Legacy serving path, verbatim.
      core::Page page = core::Page::Parse("diff", corpus[i]);
      auto located = world.registry.LocateDetailed(page.tree);
      if (located.node == html::kInvalidNode) {
        EXPECT_FALSE(hot.hit);
        EXPECT_TRUE(hot.pagelet_path.empty());
        EXPECT_TRUE(hot.objects.empty());
        continue;
      }
      ASSERT_TRUE(hot.hit);
      EXPECT_EQ(hot.pagelet_path, page.tree.PathString(located.node));
      auto spans = core::PartitionObjects(page.tree, located.node, {}, {});
      std::vector<std::string> legacy_objects =
          core::ObjectTexts(page.tree, spans);
      EXPECT_EQ(hot.objects, legacy_objects);
    }
  }
}

// Service-level closure: the service's response stream, at 1 and 4
// worker threads, must be byte-identical to a stream built directly from
// the reference composition over the same store, across drift epochs.
TEST(HotPathDiffTest, ServiceResponsesIdenticalAcrossPipelinesAndThreads) {
  namespace fs = std::filesystem;
  using Response = serve::ExtractionService::Response;
  DiffWorld world = DiffWorld::Make();
  fs::path dir = fs::path(::testing::TempDir()) / "thor_hotpath_diff";
  fs::remove_all(dir);
  auto store = serve::TemplateStore::Open(dir.string());
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE(store->Put("site0", world.registry).ok());
  const int64_t generation = store->Generation("site0");

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
      core::Page page = core::Page::Parse("site0", html);
      auto located = world.registry.LocateDetailed(page.tree);
      if (located.node != html::kInvalidNode) {
        response.source = serve::ExtractionService::Source::kTemplate;
        response.confidence = located.Confidence();
        response.pagelet_path = page.tree.PathString(located.node);
        response.objects = core::ObjectTexts(
            page.tree, core::PartitionObjects(page.tree, located.node));
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
