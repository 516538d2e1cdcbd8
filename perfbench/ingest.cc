// ingest-nosync and ingest-fsync: closed-loop writers append 16-row
// batches over many series into a ShardedIngestEngine, then the store is
// closed without a final flush, reopened (WAL replay), read back and
// checked row by row against the benchmark's own generator; a final
// Flush, Compact rounds until no-op, a Scrub and a second reopen follow.
// One such cycle runs on a fresh store, and cycles repeat until the run
// length is used up.
//
// Every timing is the benchmark's own clock around a public call:
// ShardedIngestEngine::Open / AppendBatchUntil / Close / ReadColumn /
// Flush / Scrub and IngestEngine::Compact. Program counters are read as
// deltas of obs::MetricsRegistry snapshots.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "db/shard/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/hash.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace data = fcbench::data;
namespace lsm = fcbench::db::lsm;
namespace shard = fcbench::db::shard;
namespace obs = fcbench::obs;

/// Value columns come from this Table-3 time-series dataset (8 sensor
/// channels, f64, 4 decimal digits); a key column in front names each
/// row's (series, sequence).
constexpr const char* kRowDataset = "wesad-chest";
constexpr size_t kValueCols = 8;
constexpr size_t kCols = 1 + kValueCols;
constexpr size_t kRowsPerBatch = 16;
constexpr int kSeqBits = 20;
/// Reopen-and-read samples per cycle.
constexpr int kReadbacks = 3;
/// ingest-nosync never syncs its WAL while writing; after its checks, a
/// cycle reopens the store with sync_on_commit and appends this many
/// batches from one writer, so the WAL sync layer is measured too.
constexpr size_t kDurableTailBatches = 256;

struct Shape {
  size_t shards;
  size_t writers;
  size_t series;
  size_t batches_per_series;
  bool durable;
};

// ingest-nosync: 8 shards, default 1 MiB memtables, about 33 MB of rows,
// so dozens of flushes and several compactions land in the write phase.
constexpr Shape kNoSync = {8, 2, 4096, 7, false};
// ingest-fsync: 4 writers over 2 shards, about 4.7 MB of rows held in
// memtables sized so that nothing flushes while writing.
constexpr Shape kFsync = {2, 4, 1024, 4, true};
constexpr Shape kNoSyncTiny = {8, 2, 64, 4, false};
constexpr Shape kFsyncTiny = {2, 4, 32, 2, true};

double KeyOf(uint64_t series, uint64_t seq) {
  return static_cast<double>((series << kSeqBits) | seq);
}

/// The generated inputs: each writer's batches in append order. They are
/// also the reference the read-back rows are checked against.
struct Inputs {
  Shape shape;
  uint64_t rows_per_series = 0;
  struct Batch {
    uint64_t series;
    uint64_t first_seq;
    std::vector<double> rows;  // kRowsPerBatch x kCols, row-major
  };
  std::vector<std::vector<Batch>> per_writer;
  /// Batch b of series s at [s * batches_per_series + b].
  std::vector<const Batch*> by_series;

  /// The kCols values of row `seq` of `series`, key first.
  const double* Row(uint64_t series, uint64_t seq) const {
    const Batch* b =
        by_series[series * shape.batches_per_series + seq / kRowsPerBatch];
    return b->rows.data() + (seq % kRowsPerBatch) * kCols;
  }
  uint64_t total_rows() const { return shape.series * rows_per_series; }
  uint64_t raw_bytes() const { return total_rows() * kCols * sizeof(double); }
};

fcbench::Status MakeInputs(const Shape& shape, uint64_t seed, Inputs* in) {
  in->shape = shape;
  in->rows_per_series = shape.batches_per_series * kRowsPerBatch;
  const data::DatasetInfo* info = data::FindDataset(kRowDataset);
  auto ds = data::GenerateDataset(
      *info, in->total_rows() * kValueCols * sizeof(double), seed);
  if (!ds.ok()) return ds.status();
  const double* values = reinterpret_cast<const double*>(ds.value().bytes.data());
  const uint64_t value_rows = ds.value().num_elements() / kValueCols;

  // Writer w owns the series s with s % writers == w and appends batch b
  // of each of them, in a seeded order, before batch b + 1 of any.
  in->per_writer.assign(shape.writers, {});
  for (size_t w = 0; w < shape.writers; ++w) {
    std::vector<uint64_t> own;
    for (uint64_t s = w; s < shape.series; s += shape.writers) {
      own.push_back(s);
    }
    std::mt19937_64 rng(seed * 1000003 + w);
    auto& batches = in->per_writer[w];
    for (size_t b = 0; b < shape.batches_per_series; ++b) {
      std::shuffle(own.begin(), own.end(), rng);
      for (uint64_t s : own) {
        Inputs::Batch batch{s, b * kRowsPerBatch, {}};
        batch.rows.reserve(kRowsPerBatch * kCols);
        for (size_t i = 0; i < kRowsPerBatch; ++i) {
          const uint64_t seq = batch.first_seq + i;
          const double* v =
              values + (s * in->rows_per_series + seq) % value_rows * kValueCols;
          batch.rows.push_back(KeyOf(s, seq));
          batch.rows.insert(batch.rows.end(), v, v + kValueCols);
        }
        batches.push_back(std::move(batch));
      }
    }
  }
  in->by_series.resize(shape.series * shape.batches_per_series);
  for (const auto& batches : in->per_writer) {
    for (const auto& b : batches) {
      in->by_series[b.series * shape.batches_per_series +
                    b.first_seq / kRowsPerBatch] = &b;
    }
  }
  return fcbench::Status::OK();
}

std::vector<lsm::ColumnDef> Schema() {
  const int digits = data::FindDataset(kRowDataset)->precision_digits;
  std::vector<lsm::ColumnDef> cols;
  cols.push_back({.name = "key", .compressor = ""});
  for (size_t c = 0; c < kValueCols; ++c) {
    std::string name = "v";
    name += std::to_string(c);
    cols.push_back({.name = name,
                    .precision_digits = digits,
                    .compressor = ""});
  }
  return cols;
}

shard::ShardOptions Options(const Inputs& in) {
  shard::ShardOptions opt;
  opt.num_shards = in.shape.shards;
  opt.engine.sync_on_commit = in.shape.durable;
  opt.engine.background_flush = true;
  if (in.shape.durable) {
    // Room for every row, so the write phase never flushes.
    opt.engine.memtable_bytes = static_cast<size_t>(in.raw_bytes()) + (1 << 20);
  }
  return opt;
}

/// What one read-back of the whole store found.
struct ReadBack {
  fcbench::Status status;     // the first failed ReadColumn, if any
  double read_s = 0;          // summed ReadColumn call time
  std::vector<uint64_t> digests;  // xxh64 of each column, in schema order
};

/// Reads every column, one at a time so that the benchmark holds at most
/// two columns, and checks them against the rows the benchmark knows were
/// acknowledged: every expected row exactly once, untorn (key and values
/// agree with the generator, bit for bit), no other row, and each
/// series' rows in append order. Only the ReadColumn calls are timed.
/// `dup_row` duplicates one read-back row (the self-test's planted fault).
ReadBack ReadAndCheck(const shard::ShardedIngestEngine& eng,
                      const std::vector<lsm::ColumnDef>& schema,
                      const Inputs& in, const std::vector<uint8_t>& expected,
                      uint64_t expected_rows, bool dup_row, const char* when,
                      Result* res) {
  ReadBack rb;
  const std::string at = std::string(when) + ": ";
  uint64_t bad = 0;
  auto report = [&](const std::string& why) {
    if (bad++ < 5) res->Fail(at + why);
  };
  // Row i of the store holds row ids[i] of the inputs (kNoRow: a row the
  // key column already rejected).
  constexpr uint64_t kNoRow = ~uint64_t{0};
  std::vector<uint64_t> ids;
  for (size_t c = 0; c < schema.size(); ++c) {
    const Clock::time_point t0 = Clock::now();
    auto read = eng.ReadColumn(schema[c].name);
    rb.read_s += SecondsSince(t0);
    if (!read.ok()) {
      rb.status = read.status();
      return rb;
    }
    std::vector<double> col = std::move(read).value();
    if (dup_row && !col.empty()) col.push_back(col[col.size() / 2]);
    rb.digests.push_back(
        fcbench::XxHash64(col.data(), col.size() * sizeof(double)));

    if (c == 0) {  // the key column
      if (col.size() != expected_rows) {
        report(std::to_string(col.size()) + " rows read, " +
               std::to_string(expected_rows) + " acknowledged");
      }
      std::vector<uint8_t> seen(expected.size(), 0);
      std::vector<int64_t> last_seq(in.shape.series, -1);
      ids.assign(col.size(), kNoRow);
      for (size_t i = 0; i < col.size(); ++i) {
        const double k = col[i];
        const uint64_t key = static_cast<uint64_t>(k);
        const uint64_t s = key >> kSeqBits;
        const uint64_t seq = key & ((uint64_t{1} << kSeqBits) - 1);
        const std::string name =
            "series " + std::to_string(s) + " seq " + std::to_string(seq);
        if (k < 0 || static_cast<double>(key) != k || s >= in.shape.series ||
            seq >= in.rows_per_series) {
          report("row " + std::to_string(i) + " has a key never written");
          continue;
        }
        const uint64_t id = s * in.rows_per_series + seq;
        if (!expected[id]) {
          report(name + " was not acknowledged");
          continue;
        }
        if (seen[id]++) {
          report(name + " read more than once");
          continue;
        }
        if (static_cast<int64_t>(seq) <= last_seq[s]) {
          report(name + " out of append order");
        }
        last_seq[s] = static_cast<int64_t>(seq);
        ids[i] = id;
      }
      for (size_t id = 0; id < expected.size(); ++id) {
        if (expected[id] && !seen[id]) {
          report("acknowledged row " + std::to_string(id) + " is missing");
        }
      }
      continue;
    }

    if (col.size() != ids.size()) {
      report("column " + schema[c].name + " has " +
             std::to_string(col.size()) + " rows, key has " +
             std::to_string(ids.size()));
      continue;
    }
    for (size_t i = 0; i < col.size(); ++i) {
      if (ids[i] == kNoRow) continue;
      const double* row = in.Row(ids[i] / in.rows_per_series,
                                 ids[i] % in.rows_per_series);
      if (std::memcmp(&col[i], &row[c], sizeof(double)) != 0) {
        report("row " + std::to_string(i) + " column " + schema[c].name +
               " differs from what was appended");
      }
    }
  }
  return rb;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

uint64_t Count(const obs::MetricsSnapshot& s, const char* name) {
  const auto* c = s.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

/// (count, sum) of a histogram between two snapshots.
obs::HistogramSnapshot Hist(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after,
                            const char* name) {
  const auto* a = after.FindHistogram(name);
  if (a == nullptr) return {};
  const auto* b = before.FindHistogram(name);
  return b == nullptr ? *a : a->Delta(*b);
}

/// Program-counter deltas of one phase, added into `layer`.
void AddWritePhaseCounters(const obs::MetricsSnapshot& b,
                           const obs::MetricsSnapshot& a,
                           std::map<std::string, double>* layer) {
  auto& l = *layer;
  auto count = [&](const char* name) {
    return static_cast<double>(Count(a, name) - Count(b, name));
  };
  auto busy_s = [&](const char* name) {
    return static_cast<double>(Hist(b, a, name).sum) / 1e9;
  };
  l["lsm.append.busy_s"] += busy_s("lsm.append_nanos");
  l["wal.syncs"] += static_cast<double>(Hist(b, a, "wal.sync_nanos").count);
  l["wal.sync.busy_s"] += busy_s("wal.sync_nanos");
  l["wal.commits"] += count("wal.commits");
  l["wal.commit.busy_s"] += busy_s("wal.commit_nanos");
  l["wal.rotations"] += count("wal.rotations");
  l["shard.admission.wait_s"] += busy_s("shard.admission.wait_nanos");
  l["shard.append.rejected"] += count("shard.append.rejected");
  l["lsm.flush.count"] += count("lsm.flush.count");
  l["lsm.flush.busy_s"] += busy_s("lsm.flush_nanos");
  l["select.choose.busy_s"] += busy_s("select.choose_nanos");
  l["select.cache.hits"] += count("select.cache.hits");
  l["select.cache.misses"] += count("select.cache.misses");
  l["pool.tasks"] += count("pool.tasks");
  l["pool.task.busy_s"] += busy_s("pool.task_nanos");
  l["lsm.retry.attempts"] += count("lsm.retry.attempts");
}

/// Write amplification counters over the whole cycle (write phase, final
/// flush and compaction), added into `layer`.
void AddCycleCounters(const obs::MetricsSnapshot& b,
                      const obs::MetricsSnapshot& a,
                      std::map<std::string, double>* layer) {
  for (const char* name :
       {"lsm.flush.raw_bytes", "lsm.flush.segment_bytes", "lsm.compact.count",
        "lsm.compact.in_bytes", "lsm.compact.out_bytes"}) {
    (*layer)[name] += static_cast<double>(Count(a, name) - Count(b, name));
  }
}

/// Per-cycle figures; the end-to-end metrics are their medians, so a
/// stretch of interference on the host moves one cycle, not the result.
/// Each cycle makes thousands of append calls, so its p99 has well over
/// ten samples beyond it.
struct Totals {
  std::vector<double> write_mbps;
  std::vector<double> read_mbps;
  std::vector<double> ratio;
  std::vector<double> append_p50_us;
  std::vector<double> append_p99_us;
  /// Writer thread time outside the append calls (the loop itself).
  double writer_gap_s = 0;
};

/// One cycle on a fresh store at `dir`. Returns false when the cycle
/// could not go on (the reason is in `res`).
bool RunCycle(const Args& args, const Inputs& in, const std::string& dir,
              bool first, Totals* t, SpanTable* spans, Result* res) {
  auto& layer = res->layer;
  const auto schema = Schema();
  shard::ShardOptions opt = Options(in);
  std::filesystem::remove_all(dir);
  const uint64_t cycle_nanos = obs::MonotonicNanos();
  const uint64_t recorded0 = obs::TraceCollector::Global().recorded();

  // --- open + write phase -------------------------------------------------
  const Clock::time_point open0 = Clock::now();
  auto opened = shard::ShardedIngestEngine::Open(dir, schema, opt);
  if (!opened.ok()) {
    res->Fail("open: " + opened.status().ToString());
    return false;
  }
  std::unique_ptr<shard::ShardedIngestEngine> eng = std::move(opened).value();
  layer["shard.open_s"] += SecondsSince(open0);
  if (first) res->e2e["setup_s"] = SecondsSince(args.start);
  const obs::MetricsSnapshot m0 = obs::MetricsRegistry::Global().Snapshot();

  std::vector<uint8_t> expected(in.total_rows(), 0);
  std::vector<std::vector<double>> lat(in.shape.writers);
  std::vector<double> gap_s(in.shape.writers, 0);
  std::atomic<uint64_t> failed{0};
  const auto deadline_after = std::chrono::seconds(60);
  const Clock::time_point write0 = Clock::now();
  std::vector<std::thread> writers;
  for (size_t w = 0; w < in.shape.writers; ++w) {
    writers.emplace_back([&, w] {
      const Clock::time_point w0 = Clock::now();
      double in_calls = 0;
      auto& my_lat = lat[w];
      my_lat.reserve(in.per_writer[w].size());
      for (const auto& batch : in.per_writer[w]) {
        const Clock::time_point c0 = Clock::now();
        fcbench::Status st;
        {
          std::optional<obs::ScopedSpan> span;
          if (args.trace) span.emplace("bench.append");
          st = eng->AppendBatchUntil(batch.series, batch.rows,
                                     c0 + deadline_after);
        }
        const double call_s = SecondsSince(c0);
        in_calls += call_s;
        my_lat.push_back(call_s * 1e6);
        if (!st.ok()) {
          failed.fetch_add(1);
          continue;
        }
        // Each series belongs to one writer, so its rows are ours alone.
        const uint64_t base = batch.series * in.rows_per_series + batch.first_seq;
        std::fill_n(expected.begin() + base, kRowsPerBatch, 1);
      }
      gap_s[w] = SecondsSince(w0) - in_calls;
    });
  }
  for (auto& th : writers) th.join();
  uint64_t acked_rows = 0;
  for (uint8_t e : expected) acked_rows += e;

  // The engine's own row counts must match the acknowledged rows.
  const shard::HealthReport health = eng->Health();
  uint64_t health_rows = 0;
  uint64_t stats_rows = 0;
  for (const auto& h : health.shards) {
    health_rows += h.rows;
    stats_rows += h.stats.append_rows;
  }
  if (health_rows != acked_rows || stats_rows != acked_rows) {
    res->Fail("engine counts " + std::to_string(health_rows) + " rows (" +
              std::to_string(stats_rows) + " appended), benchmark acked " +
              std::to_string(acked_rows));
  }
  if (!health.all_healthy()) res->Fail("a shard degraded during the write");

  const Clock::time_point close0 = Clock::now();
  const fcbench::Status closed = eng->Close();
  const Clock::time_point close1 = Clock::now();
  if (!closed.ok()) res->Fail("close: " + closed.ToString());
  eng.reset();
  layer["shard.close_s"] += Seconds(close1 - close0);
  const obs::MetricsSnapshot m1 = obs::MetricsRegistry::Global().Snapshot();
  AddWritePhaseCounters(m0, m1, &layer);

  const uint64_t failed_now = failed.load();
  res->attempted += in.total_rows() / kRowsPerBatch;
  res->failed += failed_now;
  if (failed_now != 0) {
    res->errors.push_back(std::to_string(failed_now) + " appends failed");
  }
  const double raw_mb = static_cast<double>(in.raw_bytes()) / 1e6;
  t->write_mbps.push_back(static_cast<double>(acked_rows * kCols *
                                              sizeof(double)) /
                          1e6 / Seconds(close1 - write0));
  std::vector<double> append_us;
  for (size_t w = 0; w < in.shape.writers; ++w) {
    append_us.insert(append_us.end(), lat[w].begin(), lat[w].end());
    t->writer_gap_s += gap_s[w];
  }
  t->append_p50_us.push_back(Percentile(append_us, 50));
  t->append_p99_us.push_back(Percentile(append_us, 99));
  if (args.inject == Inject::kDropAcked) {
    const auto it = std::find(expected.begin(), expected.end(), 1);
    if (it != expected.end()) {
      *it = 0;
      --acked_rows;
    }
  }

  // --- reopen (WAL replay) + readback -------------------------------------
  // Reopening replays the WAL into memtables and writes nothing, so the
  // same state can be reopened and read kReadbacks times; each one is a
  // readback sample, and each must return the same rows.
  shard::ShardOptions reopen = opt;
  reopen.num_shards = 0;
  std::vector<uint64_t> digests;
  double best_read_mbps = 0;
  for (int r = 0; r < kReadbacks; ++r) {
    if (eng != nullptr) {
      const fcbench::Status st = eng->Close();
      if (!st.ok()) res->Fail("close after readback: " + st.ToString());
      eng.reset();
    }
    const Clock::time_point rec0 = Clock::now();
    opened = shard::ShardedIngestEngine::Open(dir, schema, reopen);
    if (!opened.ok()) {
      res->Fail("reopen: " + opened.status().ToString());
      return false;
    }
    eng = std::move(opened).value();
    const double recover_s = SecondsSince(rec0);
    if (eng->rows() != acked_rows) {
      res->Fail("reopened engine holds " + std::to_string(eng->rows()) +
                " rows, " + std::to_string(acked_rows) + " acknowledged");
    }
    const ReadBack rb = ReadAndCheck(
        *eng, schema, in, expected, acked_rows,
        r == 0 && args.inject == Inject::kDupRow, "after reopen", res);
    if (!rb.status.ok()) {
      res->Fail("read: " + rb.status.ToString());
      return false;
    }
    if (r == 0) {
      digests = rb.digests;
    } else if (rb.digests != digests && args.inject == Inject::kNone) {
      res->Fail("a repeated reopen returned other rows");
    }
    layer["shard.recover_s"] += recover_s / kReadbacks;
    layer["shard.read_column_s"] += rb.read_s / kReadbacks;
    best_read_mbps = std::max(best_read_mbps, raw_mb / (recover_s + rb.read_s));
  }
  // Interference on the host only ever slows a sample, so the fastest of
  // the identical readbacks is the cycle's figure.
  t->read_mbps.push_back(best_read_mbps);

  // --- final flush, compaction until no-op, scrub -------------------------
  const Clock::time_point flush0 = Clock::now();
  const fcbench::Status flushed = eng->Flush();
  layer["shard.flush_s"] += SecondsSince(flush0);
  if (!flushed.ok()) res->Fail("flush: " + flushed.ToString());
  const Clock::time_point compact0 = Clock::now();
  for (size_t k = 0; k < eng->num_shards(); ++k) {
    lsm::IngestEngine* s = eng->shard(k);
    for (;;) {
      const size_t before = s->segments().size();
      const fcbench::Status st = s->Compact();
      if (!st.ok()) {
        res->Fail("compact shard " + std::to_string(k) + ": " + st.ToString());
        break;
      }
      if (s->segments().size() >= before) break;
    }
  }
  layer["lsm.compact_s"] += SecondsSince(compact0);
  const Clock::time_point scrub0 = Clock::now();
  const shard::ScrubSummary scrub = eng->Scrub();
  layer["shard.scrub_s"] += SecondsSince(scrub0);
  if (!scrub.all_clean || scrub.segments_quarantined != 0) {
    res->Fail("scrub is not clean: " +
              std::to_string(scrub.segments_quarantined) + " quarantined");
  }
  for (size_t k = 0; k < eng->num_shards(); ++k) {
    if (!eng->shard(k)->quarantined().empty()) {
      res->Fail("shard " + std::to_string(k) + " has quarantined segments");
    }
  }
  const fcbench::Status closed2 = eng->Close();
  if (!closed2.ok()) res->Fail("close after compaction: " + closed2.ToString());
  eng.reset();
  const obs::MetricsSnapshot m2 = obs::MetricsRegistry::Global().Snapshot();
  AddCycleCounters(m0, m2, &layer);
  t->ratio.push_back(static_cast<double>(in.raw_bytes()) /
                     static_cast<double>(DirBytes(dir)));
  std::fprintf(stderr,
               "perfbench: %s cycle: write %.2f MB/s, readback %.2f MB/s, "
               "store ratio %.4f, append p50 %.1f us, p99 %.1f us\n",
               args.workload.c_str(), t->write_mbps.back(),
               t->read_mbps.back(), t->ratio.back(), t->append_p50_us.back(),
               t->append_p99_us.back());

  // --- second reopen returns the same rows --------------------------------
  opened = shard::ShardedIngestEngine::Open(dir, schema, reopen);
  if (!opened.ok()) {
    res->Fail("second reopen: " + opened.status().ToString());
    return false;
  }
  eng = std::move(opened).value();
  const ReadBack second = ReadAndCheck(*eng, schema, in, expected, acked_rows,
                                       false, "after compaction", res);
  if (!second.status.ok()) {
    res->Fail("second read: " + second.status.ToString());
    return false;
  }
  if (second.digests != digests && args.inject == Inject::kNone) {
    res->Fail("second reopen returned other rows than the first");
  }
  eng->Close();
  eng.reset();

  // --- durable tail (ingest-nosync only; see kDurableTailBatches) ---------
  if (!in.shape.durable) {
    shard::ShardOptions durable = reopen;
    durable.engine.sync_on_commit = true;
    opened = shard::ShardedIngestEngine::Open(dir, schema, durable);
    if (!opened.ok()) {
      res->Fail("durable reopen: " + opened.status().ToString());
      return false;
    }
    eng = std::move(opened).value();
    const obs::MetricsSnapshot d0 = obs::MetricsRegistry::Global().Snapshot();
    const auto& batches = in.per_writer[0];
    for (size_t i = 0; i < std::min(kDurableTailBatches, batches.size()); ++i) {
      const fcbench::Status st = eng->AppendBatchUntil(
          batches[i].series, batches[i].rows, Clock::now() + deadline_after);
      if (!st.ok()) res->Fail("durable append: " + st.ToString());
    }
    const fcbench::Status st = eng->Close();
    if (!st.ok()) res->Fail("durable close: " + st.ToString());
    eng.reset();
    const obs::MetricsSnapshot d1 = obs::MetricsRegistry::Global().Snapshot();
    const obs::HistogramSnapshot syncs = Hist(d0, d1, "wal.sync_nanos");
    layer["wal.syncs"] += static_cast<double>(syncs.count);
    layer["wal.sync.busy_s"] += static_cast<double>(syncs.sum) / 1e9;
  }

  if (args.trace) {
    const uint64_t recorded =
        obs::TraceCollector::Global().recorded() - recorded0;
    const uint64_t cap = obs::TraceCollector::Global().capacity();
    if (recorded > cap) layer["trace.dropped"] += static_cast<double>(recorded - cap);
    spans->Add(obs::TraceCollector::Global().Snapshot(), cycle_nanos);
  }
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace

Result RunIngest(const Args& args, bool durable) {
  Result res;
  const Shape shape = durable ? (args.tiny ? kFsyncTiny : kFsync)
                              : (args.tiny ? kNoSyncTiny : kNoSync);
  const Clock::time_point gen0 = Clock::now();
  Inputs in;
  const fcbench::Status made = MakeInputs(shape, args.seed, &in);
  if (!made.ok()) {
    res.Fail("inputs: " + made.ToString());
    return res;
  }
  res.layer["data.generate_s"] = SecondsSince(gen0);

  const std::string dir = args.work_dir + "/" + args.workload + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(args.work_dir);
  Totals t;
  SpanTable spans;
  int cycles = 0;
  const Clock::time_point run0 = Clock::now();
  do {
    if (!RunCycle(args, in, dir, cycles == 0, &t, &spans, &res)) {
      std::filesystem::remove_all(dir);
      return res;
    }
    ++cycles;
  } while (!args.tiny && SecondsSince(run0) < args.seconds);

  res.e2e["write_mbps"] = Percentile(t.write_mbps, 50);
  res.e2e["read_mbps"] = Percentile(t.read_mbps, 50);
  res.e2e["ratio"] = Percentile(t.ratio, 50);
  res.e2e["op_p50_us"] = Percentile(t.append_p50_us, 50);
  res.e2e["op_p99_us"] = Percentile(t.append_p99_us, 50);

  // Per-layer figures are per cycle; the data layer ran once.
  for (auto& [name, value] : res.layer) {
    if (name != "data.generate_s") value /= cycles;
  }
  const double hits = res.layer["select.cache.hits"];
  const double lookups = hits + res.layer["select.cache.misses"];
  res.layer["select.cache.lookups"] = lookups;
  res.layer["select.cache.hit_rate"] = lookups > 0 ? hits / lookups : 0;
  res.layer["trace.write_mbps"] = res.e2e["write_mbps"];
  if (args.trace) {
    for (const auto& [name, row] : spans.rows()) {
      res.layer["span." + name + ".count"] =
          static_cast<double>(row.count) / cycles;
      res.layer["span." + name + ".self_s"] =
          static_cast<double>(row.self_nanos) / 1e9 / cycles;
    }
    res.layer["span.unattributed_s"] =
        res.layer["span.bench.append.self_s"] + t.writer_gap_s / cycles;
  }
  return res;
}

}  // namespace perfbench
