// Thread-scaling benchmark for the deterministic parallel execution layer:
// Phase I (page clustering with parallel K-Means restarts), Phase II
// (candidate scan + shape matching + set ranking), and the end-to-end
// pipeline at 1/2/4/8 threads over the synthetic paper corpus.
//
// The parallel layer is bit-deterministic, so besides timing, every run is
// fingerprinted and compared against the serial baseline; a mismatch is a
// bug, not noise. Results (and the host's hardware concurrency, which
// bounds any achievable speedup) are written to a JSON baseline file.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/thor.h"
#include "src/util/json.h"
#include "src/util/parallel.h"

namespace thor {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

// Stable textual fingerprint of everything RunThor produces, including the
// floating-point values bit-for-bit (%.17g round-trips doubles).
std::string Fingerprint(const core::ThorResult& result) {
  std::string out;
  char buf[64];
  auto add_int = [&](long long v) {
    std::snprintf(buf, sizeof(buf), "%lld,", v);
    out += buf;
  };
  auto add_double = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    out += buf;
  };
  for (int a : result.clustering.assignment) add_int(a);
  add_double(result.clustering.internal_similarity);
  for (const auto& centroid : result.clustering.centroids) {
    for (const auto& entry : centroid.entries()) {
      add_int(entry.id);
      add_double(entry.weight);
    }
    out += ';';
  }
  for (const auto& rc : result.ranked_clusters) {
    add_int(rc.cluster);
    add_double(rc.score);
  }
  for (int c : result.passed_clusters) add_int(c);
  for (const auto& page : result.pages) {
    add_int(page.page_index);
    add_int(page.pagelet);
    for (const auto& object : page.objects) {
      for (html::NodeId part : object.parts) add_int(part);
      out += '|';
    }
    out += ';';
  }
  return out;
}

struct Timings {
  int threads = 0;
  double phase1 = 0.0;
  double phase2 = 0.0;
  double end_to_end = 0.0;
  bool identical_to_serial = true;
};

int Main(int argc, char** argv) {
  int num_sites = argc > 1 ? std::atoi(argv[1]) : 6;
  std::string json_path =
      argc > 2 ? argv[2] : "BENCH_parallel_scaling.json";
  auto corpus = bench::BuildPaperCorpus(num_sites);
  std::vector<std::vector<core::Page>> sites;
  for (const auto& sample : corpus) {
    sites.push_back(core::ToPages(sample));
  }

  bench::PrintHeader("parallel scaling: total seconds over " +
                     std::to_string(num_sites) + " sites (host threads: " +
                     std::to_string(DefaultThreads()) + ")");
  bench::PrintRow("threads", {"phase1", "phase2", "e2e", "e2e-spd", "same"},
                  14, 10);

  std::vector<Timings> rows;
  std::vector<std::string> serial_fingerprints;
  for (int threads : kThreadCounts) {
    Timings row;
    row.threads = threads;
    for (size_t s = 0; s < sites.size(); ++s) {
      const auto& pages = sites[s];
      core::ThorOptions options;
      options.SetAllThreads(threads);

      row.phase1 += bench::TimeSeconds([&] {
        auto clustering = core::ClusterPages(pages, options.clustering);
        (void)clustering;
      });

      std::vector<const html::ArenaTree*> trees;
      for (const auto& page : pages) trees.push_back(&page.tree);
      row.phase2 += bench::TimeSeconds([&] {
        auto phase2 = core::RunPhase2(trees, options.phase2);
        (void)phase2;
      });

      std::string fingerprint;
      row.end_to_end += bench::TimeSeconds([&] {
        auto result = core::RunThor(pages, options);
        if (result.ok()) fingerprint = Fingerprint(*result);
      });
      if (threads == 1) {
        serial_fingerprints.push_back(fingerprint);
      } else if (fingerprint != serial_fingerprints[s]) {
        row.identical_to_serial = false;
      }
    }
    double speedup = rows.empty() ? 1.0 : rows[0].end_to_end / row.end_to_end;
    bench::PrintRow(std::to_string(threads),
                    {bench::Fmt(row.phase1), bench::Fmt(row.phase2),
                     bench::Fmt(row.end_to_end),
                     bench::Fmt(speedup, 2) + "x",
                     row.identical_to_serial ? "OK" : "DIFF"},
                    14, 10);
    rows.push_back(row);
  }

  bool all_identical = true;
  for (const Timings& row : rows) {
    all_identical = all_identical && row.identical_to_serial;
  }
  std::printf("\ndeterminism: results across thread counts %s\n",
              all_identical ? "byte-identical (OK)" : "DIFFER (BUG)");
  std::printf(
      "note: speedup is bounded by the host's %d hardware thread(s);\n"
      "on a 1-core host every configuration degenerates to ~1x.\n",
      DefaultThreads());

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").String("parallel_scaling");
  json.Key("num_sites").Int(num_sites);
  json.Key("host_threads").Int(DefaultThreads());
  json.Key("identical_across_thread_counts").Bool(all_identical);
  json.Key("results").BeginArray();
  for (const Timings& row : rows) {
    json.BeginObject();
    json.Key("threads").Int(row.threads);
    json.Key("phase1_s").Double(row.phase1);
    json.Key("phase2_s").Double(row.phase2);
    json.Key("end_to_end_s").Double(row.end_to_end);
    json.Key("phase1_speedup").Double(rows[0].phase1 / row.phase1);
    json.Key("phase2_speedup").Double(rows[0].phase2 / row.phase2);
    json.Key("end_to_end_speedup")
        .Double(rows[0].end_to_end / row.end_to_end);
    json.Key("identical_to_serial").Bool(row.identical_to_serial);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::ofstream out(json_path);
  out << json.str() << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace thor

int main(int argc, char** argv) { return thor::Main(argc, argv); }
