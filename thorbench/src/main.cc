// thorbench: one command for THOR's serve, network, learn and drift paths.
//
//   thorbench --workload serve_hot|serve_net|learn_cold|serve_drift
//             --seed N --seconds S --trace 0|1
//             [--train-seed N] [--out-dir DIR]
//
// Prints a human-readable table, one "thorbench-detail" JSON line (stamp,
// every figure, shape facts), and, last, the result line:
//   {"correct":...,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. A failed output check prints no result line and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/util/json.h"
#include "thorbench/src/bench.h"
#include "thorbench/src/workloads.h"

#ifndef THORBENCH_BUILD_TYPE
#define THORBENCH_BUILD_TYPE "unknown"
#endif
#ifndef THORBENCH_COMPILER
#define THORBENCH_COMPILER "unknown"
#endif

namespace thorbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: thorbench --workload W --seed N --seconds S "
               "--trace 0|1 [--train-seed N] [--out-dir DIR]\n"
               "workloads: serve_hot serve_net learn_cold serve_drift\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = value;
  return true;
}

/// {"name":{"value":V,"unit":"U"},...} with every digit of each value
/// (util/json rounds doubles to six significant digits). Names and units
/// are identifiers chosen by this program, so they need no escaping.
std::string MetricsJson(const std::vector<Metric>& list) {
  std::string out = "{";
  for (const Metric& metric : list) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (out.size() > 1) out += ",";
    out += "\"" + metric.name + "\":{\"value\":" + value + ",\"unit\":\"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& list) {
  if (list.empty()) return;
  std::printf("%s\n", title);
  for (const Metric& metric : list) {
    std::printf("  %-44s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Options options;
  uint64_t trace = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* flag = argv[i];
    if (!std::strcmp(flag, "--workload")) {
      const char* text = next();
      if (text == nullptr) return Usage();
      options.workload = text;
    } else if (!std::strcmp(flag, "--seed")) {
      if (!ParseUint(next(), &options.seed)) return Usage();
      have_seed = true;
    } else if (!std::strcmp(flag, "--seconds")) {
      const char* text = next();
      char* end = nullptr;
      options.seconds = text != nullptr ? std::strtod(text, &end) : 0.0;
      if (text == nullptr || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage();
      }
    } else if (!std::strcmp(flag, "--trace")) {
      if (!ParseUint(next(), &trace) || trace > 1) return Usage();
      options.trace = trace == 1;
    } else if (!std::strcmp(flag, "--train-seed")) {
      if (!ParseUint(next(), &options.train_seed)) return Usage();
    } else if (!std::strcmp(flag, "--out-dir")) {
      const char* text = next();
      if (text == nullptr) return Usage();
      options.out_dir = text;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || !have_seed) return Usage();

  Result result;
  if (options.workload == "serve_hot") {
    result = RunServeHot(options);
  } else if (options.workload == "serve_net") {
    result = RunServeNet(options);
  } else if (options.workload == "learn_cold") {
    result = RunLearnCold(options);
  } else if (options.workload == "serve_drift") {
    result = RunServeDrift(options);
  } else {
    return Usage();
  }

  if (!result.correct) {
    // A failed output check yields no numbers at all.
    std::fprintf(stderr, "thorbench: output check failed: %s\n",
                 result.why_incorrect.c_str());
    return 1;
  }

  std::printf("thorbench %s seed=%llu seconds=%g trace=%d nproc=%d "
              "build=%s compiler=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, Nproc(), THORBENCH_BUILD_TYPE,
              THORBENCH_COMPILER);
  PrintTable("end-to-end", result.end_to_end);
  PrintTable("workload figures", result.extra);
  PrintTable("per-layer", result.layers);

  thor::JsonWriter stamp;
  stamp.BeginObject();
  stamp.Key("workload").String(options.workload);
  stamp.Key("seed").Int(static_cast<long long>(options.seed));
  stamp.Key("train_seed").Int(static_cast<long long>(options.train_seed));
  stamp.Key("seconds").Double(options.seconds);
  stamp.Key("trace").Bool(options.trace);
  stamp.Key("nproc").Int(Nproc());
  stamp.Key("build_type").String(THORBENCH_BUILD_TYPE);
  stamp.Key("compiler").String(THORBENCH_COMPILER);
  stamp.Key("attempted").Int(result.attempted);
  stamp.Key("failed").Int(result.failed);
  stamp.EndObject();
  std::vector<Metric> shape;
  for (const auto& [name, value] : result.shape) {
    shape.push_back({name, value, ""});
  }
  std::string detail = "{\"stamp\":" + stamp.str() +
                       ",\"end_to_end\":" + MetricsJson(result.end_to_end) +
                       ",\"extra\":" + MetricsJson(result.extra) +
                       ",\"layers\":" + MetricsJson(result.layers) +
                       ",\"shape\":" + MetricsJson(shape) + "}";
  std::printf("thorbench-detail %s\n", detail.c_str());
  if (options.trace) {
    WriteFile(OutPath(options, "layers.json"), detail + "\n");
  }
  std::printf("{\"correct\":true,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              MetricsJson(options.trace ? result.layers : result.end_to_end)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace thorbench

int main(int argc, char** argv) { return thorbench::Main(argc, argv); }
