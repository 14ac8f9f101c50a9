// Template-registry study (serving-path extension): accuracy and cost of
// learn-once/apply-cheaply extraction.
//  1. Application accuracy on fresh pages vs the training sample size.
//  2. Per-page latency: full Phase-II analysis vs template application.

#include <cstdlib>

#include "bench/bench_util.h"
#include "src/core/hot_extractor.h"
#include "src/core/template_registry.h"
#include "src/text/word_lists.h"

namespace thor {
namespace {

int Main(int argc, char** argv) {
  int num_sites = argc > 1 ? std::atoi(argv[1]) : 15;
  deepweb::FleetOptions fleet_options;
  fleet_options.num_sites = num_sites;
  auto fleet = deepweb::GenerateSiteFleet(fleet_options);

  bench::PrintHeader(
      "Template application accuracy vs training sample size (" +
      std::to_string(num_sites) + " sites, 100 fresh queries each)");
  bench::PrintRow("train", {"recall", "precision", "skipped-ok"});
  for (int training_queries : {20, 40, 70, 100}) {
    int answers = 0;
    int located = 0;
    int correct = 0;
    int no_answer = 0;
    int skipped = 0;
    for (const auto& site : fleet) {
      deepweb::ProbeOptions probe;
      probe.num_dictionary_words = training_queries;
      probe.num_nonsense_words = std::max(2, training_queries / 10);
      probe.seed = 1234 + static_cast<uint64_t>(site.config().site_id);
      auto sample = deepweb::BuildSiteSample(site, probe);
      auto pages = core::ToPages(sample);
      auto result = core::RunThor(pages, core::ThorOptions{});
      if (!result.ok()) continue;
      auto compiled = core::CompiledTemplates::Compile(
          core::TemplateRegistry::Learn(pages, *result));
      core::HotExtractor extractor;
      Rng rng(42 + static_cast<uint64_t>(site.config().site_id));
      for (int q = 0; q < 100; ++q) {
        std::string word = (q % 7 == 6) ? text::MakeNonsenseWord(&rng)
                                        : text::RandomWord(&rng);
        deepweb::LabeledPage page = deepweb::LabelPage(site.Query(word));
        html::NodeId node = extractor.Locate(page.tree, compiled).node;
        if (page.pagelet_node != html::kInvalidNode) {
          ++answers;
          if (node != html::kInvalidNode) {
            ++located;
            if (core::PageletMatches(page.tree, node, page.pagelet_node)) {
              ++correct;
            }
          }
        } else {
          ++no_answer;
          if (node == html::kInvalidNode) ++skipped;
        }
      }
    }
    bench::PrintRow(
        std::to_string(training_queries),
        {bench::Fmt(answers ? static_cast<double>(correct) / answers : 0),
         bench::Fmt(located ? static_cast<double>(correct) / located : 0),
         bench::Fmt(no_answer ? static_cast<double>(skipped) / no_answer
                              : 0)});
  }

  bench::PrintHeader("Per-page cost: full Phase II vs template application");
  {
    const auto& site = fleet[0];
    deepweb::ProbeOptions probe;
    auto sample = deepweb::BuildSiteSample(site, probe);
    auto pages = core::ToPages(sample);
    auto result = core::RunThor(pages, core::ThorOptions{});
    auto compiled = core::CompiledTemplates::Compile(
        core::TemplateRegistry::Learn(pages, *result));
    core::HotExtractor extractor;
    double full_seconds = bench::TimeSeconds([&] {
      auto rerun = core::RunThor(pages, core::ThorOptions{});
      (void)rerun;
    });
    double apply_seconds = bench::TimeSeconds([&] {
      for (const auto& page : pages) {
        auto located = extractor.Locate(page.tree, compiled);
        (void)located;
      }
    });
    std::printf(
        "full pipeline: %7.3f ms/page     template apply: %7.3f ms/page "
        "(%.0fx cheaper)\n",
        full_seconds * 1000.0 / pages.size(),
        apply_seconds * 1000.0 / pages.size(),
        full_seconds / std::max(apply_seconds, 1e-9));
  }
  std::printf(
      "\nexpected: accuracy saturates with a few dozen training pages;\n"
      "application is one to two orders of magnitude cheaper per page.\n");
  return 0;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
