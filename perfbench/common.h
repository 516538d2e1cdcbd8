// Shared pieces of the perfbench binary: command-line arguments, the
// result every workload fills, summary statistics, and the per-layer
// span table built from the program's trace collector.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A traced run records every span (sampling 1 in 1) into a ring of
/// kTraceCapacity spans, about four times what one ingest-nosync cycle
/// records, so a cycle never wraps it (trace.dropped reports it if one
/// does). Sampling fewer roots would bias the counts: a background flush
/// started under a sampled append is recorded with it, whatever the pool
/// thread samples.
constexpr uint64_t kTraceCapacity = uint64_t{1} << 20;

/// Fault planted by the self-test so that a check which cannot fail is
/// caught: each one must turn `correct` false.
enum class Inject {
  kNone,
  kFlipByte,   // codec-suite: one byte of a decompressed buffer flipped
  kDropAcked,  // ingest: one acknowledged row removed from the expected set
  kDupRow,     // ingest: one read-back row duplicated
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke-test scale: small inputs, one round.
  bool tiny = false;
  Inject inject = Inject::kNone;
  /// Scratch directory for stores and the traced per-layer table.
  std::string work_dir = ".perfbench/work";
  /// Process start, taken first thing in main(); setup_s counts from it.
  Clock::time_point start;
};

/// What a workload reports. End-to-end metrics come from untraced runs;
/// `layer` holds per-layer values keyed by the names in PerLayerMetrics().
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed check (printed to stderr).
  std::vector<std::string> errors;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;

  void Fail(const std::string& why);
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// End-to-end metrics every workload reports with --trace 0.
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics every workload reports with --trace 1 (0 where the
/// workload does not exercise the layer; see README.md).
const std::vector<MetricDef>& PerLayerMetrics();

/// The lossless CPU methods of the paper that codec-suite runs.
const std::vector<std::string>& CodecMethods();
/// Program span names whose count and self time the traced run reports.
const std::vector<std::string>& TracedSpanNames();

double Seconds(Clock::duration d);
double SecondsSince(Clock::time_point t);

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double GeoMean(const std::vector<double>& v);
double HarmonicMean(const std::vector<double>& v);
/// Peak resident set of this process, in MB (10^6 bytes).
double PeakRssMb();

/// Accumulates per-span-name count and self time from sampled spans.
/// Self time is a span's duration minus the part its same-thread
/// children cover (children on other threads, such as a background
/// flush adopted under an append, run in parallel and are not
/// subtracted).
class SpanTable {
 public:
  /// Adds the spans that started at or after `since_nanos`.
  void Add(const std::vector<fcbench::obs::SpanRecord>& spans,
           uint64_t since_nanos);

  struct Row {
    uint64_t count = 0;
    uint64_t self_nanos = 0;
  };
  const std::map<std::string, Row>& rows() const { return rows_; }

 private:
  std::map<std::string, Row> rows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
