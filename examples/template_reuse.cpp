// Template reuse: the deep-web search-engine serving path. The full
// two-phase analysis runs once per site on a probed sample; the learned
// extraction templates then locate the QA-Pagelet on any later page from
// the same site in a single cheap pass — no clustering, no cross-page
// analysis.
//
// This example learns templates for one site, then "crawls" 200 fresh
// queries and compares the template fast path against ground truth,
// timing both the one-off learning phase and the per-page application.

#include <chrono>
#include <cstdio>

#include "src/core/evaluation.h"
#include "src/core/hot_extractor.h"
#include "src/core/template_registry.h"
#include "src/core/thor.h"
#include "src/deepweb/corpus.h"
#include "src/deepweb/site_generator.h"
#include "src/text/word_lists.h"

int main() {
  using namespace thor;
  using Clock = std::chrono::steady_clock;

  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = 1;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);
  const deepweb::DeepWebSite& site = fleet[0];

  // --- one-off: probe + two-phase analysis + template learning ---------
  auto t0 = Clock::now();
  deepweb::SiteSample sample =
      deepweb::BuildSiteSample(site, deepweb::ProbeOptions{});
  auto pages = core::ToPages(sample);
  auto result = core::RunThor(pages, core::ThorOptions{});
  if (!result.ok()) {
    std::printf("THOR failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  core::TemplateRegistry registry =
      core::TemplateRegistry::Learn(pages, *result);
  double learn_ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
  std::printf("learned %zu template(s) from %zu probed pages in %.1f ms\n",
              registry.templates().size(), pages.size(), learn_ms);
  for (const auto& tmpl : registry.templates()) {
    std::printf("  template path=%s support=%d budget=%.2f stable-tags=%zu\n",
                tmpl.path_symbols.c_str(), tmpl.support, tmpl.max_distance,
                tmpl.stable_tags.size());
  }

  // --- serving: fresh queries through the fast path ---------------------
  core::CompiledTemplates compiled = core::CompiledTemplates::Compile(registry);
  core::HotExtractor extractor;
  Rng rng(2026);
  int answers = 0;
  int correct = 0;
  int located = 0;
  int skipped_no_match = 0;
  double serve_ms = 0.0;
  constexpr int kFreshQueries = 200;
  for (int i = 0; i < kFreshQueries; ++i) {
    std::string word = text::RandomWord(&rng);
    auto response = site.Query(word);
    deepweb::LabeledPage page = deepweb::LabelPage(response);
    auto t1 = Clock::now();
    // Node ids of the extractor's parse and of page.tree agree: both come
    // from the one parser over the same bytes.
    auto extraction = extractor.Extract(response.html, compiled);
    serve_ms +=
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
    if (page.pagelet_node != html::kInvalidNode) ++answers;
    if (!extraction.hit) {
      if (page.pagelet_node == html::kInvalidNode) ++skipped_no_match;
      continue;
    }
    ++located;
    if (core::PageletMatches(page.tree, extraction.located.node,
                             page.pagelet_node)) {
      ++correct;
    }
  }
  std::printf(
      "\nserved %d fresh queries: %d answer pages, %d located, %d correct\n"
      "no-answer pages correctly skipped: %d\n",
      kFreshQueries, answers, located, correct, skipped_no_match);
  std::printf("precision %.3f  recall %.3f\n",
              located > 0 ? static_cast<double>(correct) / located : 0.0,
              answers > 0 ? static_cast<double>(correct) / answers : 0.0);
  std::printf("template application: %.3f ms/page (learning was a one-off "
              "%.1f ms)\n",
              serve_ms / kFreshQueries, learn_ms);
  return 0;
}
