// Google-benchmark microbenchmarks for THOR's primitives: HTML parsing,
// signature construction, TFIDF weighting, cosine similarity, a K-Means
// iteration, string edit distance, the subtree shape distance, and
// Zhang-Shasha tree edit distance.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "src/cluster/kmeans.h"
#include "src/core/common_subtrees.h"
#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/signature_builder.h"
#include "src/core/subtree_filter.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/prober.h"
#include "src/deepweb/site_generator.h"
#include "src/html/arena_parser.h"
#include "src/html/parser.h"
#include "src/ir/similarity.h"
#include "src/ir/tfidf.h"
#include "src/text/edit_distance.h"
#include "src/treedist/zhang_shasha.h"

namespace thor {
namespace {

const deepweb::DeepWebSite& BenchSite() {
  static const auto& site = *new deepweb::DeepWebSite([] {
    deepweb::SiteConfig config;
    config.site_id = 0;
    config.domain = deepweb::Domain::kEcommerce;
    config.seed = 99;
    config.catalog_size = 800;
    config.error_rate = 0.0;
    return config;
  }());
  return site;
}

const std::string& MultiMatchHtml() {
  static const auto& html =
      *new std::string(BenchSite().Query("electronics").html);
  return html;
}

const html::TagTree& MultiMatchTree() {
  static const auto& tree =
      *new html::TagTree(html::ParseHtml(MultiMatchHtml()));
  return tree;
}

void BM_ParseHtml(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  for (auto _ : state) {
    html::TagTree tree = html::ParseHtml(html);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseHtml);

void BM_HotParseHtml(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  html::HotParser parser;  // arena + scratch reused across iterations
  for (auto _ : state) {
    const html::ArenaTree& tree = parser.Parse(html);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HotParseHtml);

const core::TemplateRegistry& BenchRegistry() {
  static const auto& registry = *new core::TemplateRegistry([] {
    deepweb::ProbeOptions probe;
    probe.num_dictionary_words = 40;
    probe.num_nonsense_words = 6;
    probe.seed = 1234;
    auto pages = core::ToPages(deepweb::BuildSiteSample(BenchSite(), probe));
    auto result = core::RunThor(pages, core::ThorOptions{});
    return core::TemplateRegistry::Learn(pages, *result);
  }());
  return registry;
}

// The serving hot loop, legacy pipeline: parse + locate per request.
void BM_ParseLocate(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  const core::TemplateRegistry& registry = BenchRegistry();
  for (auto _ : state) {
    html::TagTree tree = html::ParseHtml(html);
    auto located = registry.LocateDetailed(tree);
    benchmark::DoNotOptimize(located.template_index);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseLocate);

// Same work on the arena pipeline. tools/check_bench_regression.py gates
// CI on the BM_HotParseLocate : BM_ParseLocate time ratio staying within
// 20% of the committed BENCH_micro_baseline.json.
void BM_HotParseLocate(benchmark::State& state) {
  const std::string& html = MultiMatchHtml();
  core::CompiledTemplates compiled =
      core::CompiledTemplates::Compile(BenchRegistry());
  core::HotExtractor extractor;
  for (auto _ : state) {
    const html::ArenaTree& tree = extractor.Parse(html);
    auto located = extractor.Locate(tree, compiled);
    benchmark::DoNotOptimize(located.template_index);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_HotParseLocate);

// BM_HotParseLocate with one extractor per thread, as ExtractBatch runs it.
// tools/check_bench_regression.py --scaling gates CI on the aggregate
// items/s at T = min(cores, 4) threads staying >= 0.5 * T times the
// 1-thread rate: shared state on the parse path shows up here.
void BM_ThreadedHotParseLocate(benchmark::State& state) {
  BM_HotParseLocate(state);  // each thread compiles and parses on its own
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void ScalingThreads(benchmark::internal::Benchmark* bench) {
  bench->Threads(1);
  int threads =
      std::min(static_cast<int>(std::thread::hardware_concurrency()), 4);
  if (threads > 1) bench->Threads(threads);
}
BENCHMARK(BM_ThreadedHotParseLocate)->Apply(ScalingThreads)->UseRealTime();

void BM_TagSignature(benchmark::State& state) {
  const html::TagTree& tree = MultiMatchTree();
  for (auto _ : state) {
    auto vector = core::TagCountVector(tree);
    benchmark::DoNotOptimize(vector.size());
  }
}
BENCHMARK(BM_TagSignature);

void BM_TermSignature(benchmark::State& state) {
  const html::TagTree& tree = MultiMatchTree();
  for (auto _ : state) {
    ir::Vocabulary vocab;
    auto vector = core::TermCountVector(tree, &vocab);
    benchmark::DoNotOptimize(vector.size());
  }
}
BENCHMARK(BM_TermSignature);

std::vector<ir::SparseVector> ProbeTagCounts() {
  std::vector<ir::SparseVector> counts;
  deepweb::ProbeOptions probe;
  for (const auto& response : deepweb::ProbeSite(BenchSite(), probe)) {
    counts.push_back(
        core::TagCountVector(html::ParseHtml(response.html)));
  }
  return counts;
}

void BM_TfidfWeighAll(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  for (auto _ : state) {
    auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
    benchmark::DoNotOptimize(weighted.size());
  }
}
BENCHMARK(BM_TfidfWeighAll);

void BM_CosineSimilarity(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
  size_t i = 0;
  for (auto _ : state) {
    double sim = ir::CosineNormalized(weighted[i % weighted.size()],
                                      weighted[(i + 7) % weighted.size()]);
    benchmark::DoNotOptimize(sim);
    ++i;
  }
}
BENCHMARK(BM_CosineSimilarity);

void BM_KMeansIteration(benchmark::State& state) {
  static const auto& counts = *new std::vector<ir::SparseVector>(
      ProbeTagCounts());
  ir::TfidfModel model = ir::TfidfModel::Fit(counts);
  auto weighted = model.WeighAll(counts, ir::Weighting::kTfidf);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto result = cluster::KMeansOneIteration(weighted, 3, seed++);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KMeansIteration);

void BM_EditDistanceUrls(benchmark::State& state) {
  std::string a = BenchSite().Query("guitar").url;
  std::string b = BenchSite().Query("electronics").url;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistanceUrls);

void BM_ShapeDistance(benchmark::State& state) {
  const html::TagTree& tree = MultiMatchTree();
  auto candidates = core::CandidateSubtrees(tree);
  std::vector<core::ShapeQuad> quads;
  for (html::NodeId id : candidates) {
    quads.push_back(core::MakeShapeQuad(tree, id));
  }
  size_t i = 0;
  for (auto _ : state) {
    double d = core::ShapeDistance(quads[i % quads.size()],
                                   quads[(i + 3) % quads.size()]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_ShapeDistance);

void BM_SinglePageAnalysis(benchmark::State& state) {
  const html::TagTree& tree = MultiMatchTree();
  for (auto _ : state) {
    auto candidates = core::CandidateSubtrees(tree);
    benchmark::DoNotOptimize(candidates.size());
  }
}
BENCHMARK(BM_SinglePageAnalysis);

void BM_ZhangShasha(benchmark::State& state) {
  treedist::OrderedTree a = treedist::OrderedTree::FromTagTree(
      MultiMatchTree(), MultiMatchTree().root());
  html::TagTree other_tree =
      html::ParseHtml(BenchSite().Query("guitar").html);
  treedist::OrderedTree b =
      treedist::OrderedTree::FromTagTree(other_tree, other_tree.root());
  for (auto _ : state) {
    benchmark::DoNotOptimize(treedist::TreeEditDistance(a, b));
  }
}
BENCHMARK(BM_ZhangShasha);

}  // namespace
}  // namespace thor
