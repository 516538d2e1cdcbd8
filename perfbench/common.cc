#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

void Result::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"peak_rss_mb", "MB"}, {"write_mbps", "MB/s"},
      {"read_mbps", "MB/s"},   {"ratio", "ratio"},    {"op_p50_us", "us"},
      {"op_p99_us", "us"},
  };
  return defs;
}

const std::vector<std::string>& CodecMethods() {
  static const std::vector<std::string> methods = {
      "pfpc",      "spdp",      "fpzip", "bitshuffle_lz4", "bitshuffle_zstd",
      "ndzip_cpu", "buff",      "gorilla", "chimp128",
  };
  return methods;
}

const std::vector<std::string>& TracedSpanNames() {
  static const std::vector<std::string> names = {
      "shard.append",    "shard.route",    "shard.admission", "lsm.append",
      "wal.commit",      "wal.append",     "wal.sync",        "lsm.memtable",
      "lsm.flush",       "select.choose",  "segment.column",  "segment.publish",
      "lsm.manifest",    "lsm.compact",    "lsm.read",        "segment.read",
      "shard.read",
  };
  return names;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const auto& m : CodecMethods()) {
      d.push_back({"codec." + m + ".compress_mbps", "MB/s"});
      d.push_back({"codec." + m + ".decompress_mbps", "MB/s"});
      d.push_back({"codec." + m + ".cr", "ratio"});
    }
    const std::vector<MetricDef> fixed = {
        {"data.generate_s", "s"},
        {"shard.open_s", "s"},
        {"shard.close_s", "s"},
        {"shard.recover_s", "s"},
        {"shard.read_column_s", "s"},
        {"shard.flush_s", "s"},
        {"lsm.compact_s", "s"},
        {"shard.scrub_s", "s"},
        {"lsm.append.busy_s", "s"},
        {"wal.syncs", "count"},
        {"wal.sync.busy_s", "s"},
        {"wal.commits", "count"},
        {"wal.commit.busy_s", "s"},
        {"wal.rotations", "count"},
        {"shard.admission.wait_s", "s"},
        {"shard.append.rejected", "count"},
        {"lsm.flush.count", "count"},
        {"lsm.flush.busy_s", "s"},
        {"select.choose.busy_s", "s"},
        {"select.cache.hits", "count"},
        {"select.cache.misses", "count"},
        {"select.cache.lookups", "count"},
        {"select.cache.hit_rate", "ratio"},
        {"pool.tasks", "count"},
        {"pool.task.busy_s", "s"},
        {"lsm.flush.raw_bytes", "bytes"},
        {"lsm.flush.segment_bytes", "bytes"},
        {"lsm.compact.count", "count"},
        {"lsm.compact.in_bytes", "bytes"},
        {"lsm.compact.out_bytes", "bytes"},
        {"lsm.retry.attempts", "count"},
    };
    d.insert(d.end(), fixed.begin(), fixed.end());
    for (const auto& s : TracedSpanNames()) {
      d.push_back({"span." + s + ".count", "count"});
      d.push_back({"span." + s + ".self_s", "s"});
    }
    d.push_back({"span.unattributed_s", "s"});
    d.push_back({"trace.dropped", "count"});
    d.push_back({"trace.write_mbps", "MB/s"});
    return d;
  }();
  return defs;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double SecondsSince(Clock::time_point t) { return Seconds(Clock::now() - t); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double HarmonicMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double inv = 0;
  for (double x : v) inv += 1.0 / x;
  return static_cast<double>(v.size()) / inv;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

void SpanTable::Add(const std::vector<fcbench::obs::SpanRecord>& spans,
                    uint64_t since_nanos) {
  // Same-thread child time per parent span id.
  std::unordered_map<uint64_t, uint64_t> child_nanos;
  std::unordered_map<uint64_t, uint32_t> tid_of;
  for (const auto& s : spans) {
    if (s.start_nanos >= since_nanos) tid_of[s.span_id] = s.tid;
  }
  for (const auto& s : spans) {
    if (s.start_nanos < since_nanos || s.parent_id == 0) continue;
    auto it = tid_of.find(s.parent_id);
    if (it != tid_of.end() && it->second == s.tid) {
      child_nanos[s.parent_id] += s.dur_nanos;
    }
  }
  for (const auto& s : spans) {
    if (s.start_nanos < since_nanos) continue;
    Row& row = rows_[s.name];
    ++row.count;
    const uint64_t child = child_nanos[s.span_id];
    row.self_nanos += s.dur_nanos > child ? s.dur_nanos - child : 0;
  }
}

}  // namespace perfbench
