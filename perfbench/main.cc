// perfbench: the repository benchmark's binary (run through
// run.py, which builds it). Usage:
//
//   perfbench --workload <codec-suite|ingest-nosync|ingest-fsync>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--inject <flip|drop|dup>] [--work-dir <dir>]
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<codec-suite|ingest-nosync|ingest-fsync> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] "
               "[--inject <flip|drop|dup>] [--work-dir <dir>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--inject") {
      if (v == "flip") {
        a->inject = Inject::kFlipByte;
      } else if (v == "drop") {
        a->inject = Inject::kDropAcked;
      } else if (v == "dup") {
        a->inject = Inject::kDupRow;
      } else {
        return false;
      }
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

void AppendMetric(std::string* out, const std::string& name, double value,
                  const std::string& unit) {
  char num[64];
  std::snprintf(num, sizeof(num), "%.17g", value);
  if (out->back() != '{') *out += ", ";
  *out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + unit +
          "\"}";
}

/// Writes the per-layer table of a traced run next to the stores and to
/// stderr.
void WriteLayerTable(const Args& args, const Result& res) {
  std::string table = "# per-layer metrics, workload " + args.workload +
                      ", seed " + std::to_string(args.seed) + "\n";
  for (const auto& def : PerLayerMetrics()) {
    const auto it = res.layer.find(def.name);
    char line[160];
    std::snprintf(line, sizeof(line), "%-40s %16.6f %s\n", def.name.c_str(),
                  it == res.layer.end() ? 0.0 : it->second, def.unit.c_str());
    table += line;
  }
  std::fputs(table.c_str(), stderr);
  std::filesystem::create_directories(args.work_dir);
  std::ofstream(args.work_dir + "/" + args.workload + "-layers.txt") << table;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  args.start = Clock::now();
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");

  // The program's default observability: metrics on, tracing off. A
  // traced run records every span into a ring sized so that one cycle
  // never wraps it.
  fcbench::obs::SetEnabled(true);
  fcbench::obs::SetSlowOpThresholdMs(0);
  if (args.trace) {
    setenv("FCBENCH_TRACE_CAP", std::to_string(kTraceCapacity).c_str(), 1);
    fcbench::obs::SetTraceSampling(1, args.seed);
  } else {
    fcbench::obs::SetTraceSampling(0);
  }

  Result res;
  if (args.workload == "codec-suite") {
    res = RunCodecSuite(args);
  } else if (args.workload == "ingest-nosync") {
    res = RunIngest(args, /*durable=*/false);
  } else if (args.workload == "ingest-fsync") {
    res = RunIngest(args, /*durable=*/true);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  res.e2e["peak_rss_mb"] = PeakRssMb();

  const auto& defs = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = args.trace ? res.layer : res.e2e;
  std::string metrics = "{";
  for (const auto& def : defs) {
    const auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!args.trace && (it == values.end() || !(v > 0))) {
      res.Fail("end-to-end metric " + def.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      res.Fail("metric " + def.name + " is not finite");
      v = 0;
    }
    AppendMetric(&metrics, def.name, v, def.unit);
  }
  metrics += "}";
  if (args.trace) WriteLayerTable(args, res);

  for (const auto& e : res.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      res.correct ? "true" : "false",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed), metrics.c_str());
  return 0;
}
