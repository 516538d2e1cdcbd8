// codec-suite: the paper's per-method, per-phase protocol (FCBench §5.2).
// Every lossless CPU method compresses and decompresses every Table-3
// dataset at one fixed size; each pair is checked bit for bit. Calls are
// timed one by one around Compressor::Compress / Decompress, the way the
// paper wraps its timers around the compression call alone.

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/compressor.h"
#include "data/dataset.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fcbench::Buffer;
using fcbench::Compressor;
using fcbench::CompressorConfig;
using fcbench::CompressorRegistry;
namespace data = fcbench::data;

constexpr uint64_t kDatasetBytes = 1 << 20;
constexpr uint64_t kTinyDatasetBytes = 64 << 10;

/// Pairs that fail every time because of a known program fault. They run
/// on an input generated from this fixed seed, not from --seed, so the
/// failure (and with it the failed share of a run) is the same on every
/// seed. See CHANGES.md (FOUND: buff decimal decode turns +0.0 into -0.0).
constexpr uint64_t kKnownFaultSeed = 42;
const std::set<std::pair<std::string, std::string>>& KnownFaults() {
  static const std::set<std::pair<std::string, std::string>> pairs = {
      {"buff", "solar-wind"},
  };
  return pairs;
}

/// Pairs left out: the same BUFF fault shows on these datasets only on
/// some seeds (about one seed in six at 1 MiB), so they can neither be
/// kept as a steady failure nor counted on to pass. See CHANGES.md.
const std::set<std::pair<std::string, std::string>>& LeftOut() {
  static const std::set<std::pair<std::string, std::string>> pairs = {
      {"buff", "phone-gyro"},
      {"buff", "wesad-chest"},
  };
  return pairs;
}

struct Pair {
  size_t method;              // index into CodecMethods()
  const data::Dataset* input;
  bool known_fault;
};

struct MethodTotals {
  uint64_t raw_bytes = 0;
  double compress_s = 0;
  double decompress_s = 0;

  void Add(uint64_t bytes, double c_s, double d_s) {
    raw_bytes += bytes;
    compress_s += c_s;
    decompress_s += d_s;
  }
  double compress_mbps() const { return raw_bytes / 1e6 / compress_s; }
  double decompress_mbps() const { return raw_bytes / 1e6 / decompress_s; }
};

/// The suite figures: geometric means across methods, so that a 2x gain
/// in any one method moves them by the same amount.
void SuiteFigures(const std::vector<MethodTotals>& per_method,
                  double* compress_mbps, double* decompress_mbps) {
  std::vector<double> c, d;
  for (const MethodTotals& t : per_method) {
    if (t.raw_bytes == 0) continue;
    c.push_back(t.compress_mbps());
    d.push_back(t.decompress_mbps());
  }
  *compress_mbps = GeoMean(c);
  *decompress_mbps = GeoMean(d);
}

}  // namespace

Result RunCodecSuite(const Args& args) {
  Result res;
  const auto& methods = CodecMethods();
  const uint64_t size = args.tiny ? kTinyDatasetBytes : kDatasetBytes;

  // --- set-up: inputs and one compressor per method ----------------------
  const Clock::time_point gen_start = Clock::now();
  std::vector<data::Dataset> inputs;
  std::vector<data::Dataset> fault_inputs;
  inputs.reserve(data::AllDatasets().size());
  for (const auto& info : data::AllDatasets()) {
    auto ds = data::GenerateDataset(info, size, args.seed);
    if (!ds.ok()) {
      res.Fail("generate " + info.name + ": " + ds.status().ToString());
      return res;
    }
    inputs.push_back(std::move(ds).value());
  }
  for (const auto& [method, name] : KnownFaults()) {
    auto ds = data::GenerateDataset(*data::FindDataset(name), size,
                                    kKnownFaultSeed);
    if (!ds.ok()) {
      res.Fail("generate " + name + ": " + ds.status().ToString());
      return res;
    }
    fault_inputs.push_back(std::move(ds).value());
  }
  res.layer["data.generate_s"] = SecondsSince(gen_start);

  // pFPC is the one multi-threaded method here; it gets no more threads
  // than the host has.
  CompressorConfig config;
  config.threads = static_cast<int>(
      std::max(1u, std::min(8u, std::thread::hardware_concurrency())));
  std::vector<std::unique_ptr<Compressor>> codecs;
  for (const auto& m : methods) {
    auto c = CompressorRegistry::Global().Create(m, config);
    if (!c.ok()) {
      res.Fail("create " + m + ": " + c.status().ToString());
      return res;
    }
    codecs.push_back(std::move(c).value());
  }

  // Dataset-major order, so every method's calls are spread over the
  // whole round instead of bunched into one stretch of it.
  std::vector<Pair> pairs;
  for (const auto& ds : inputs) {
    for (size_t m = 0; m < methods.size(); ++m) {
      const std::pair<std::string, std::string> key{methods[m],
                                                    ds.info->name};
      if (methods[m] == "buff" && ds.info->precision_digits == 0) continue;
      if (LeftOut().count(key) != 0) continue;
      if (KnownFaults().count(key) != 0) {
        for (const auto& f : fault_inputs) {
          if (f.info == ds.info) pairs.push_back({m, &f, true});
        }
        continue;
      }
      pairs.push_back({m, &ds, false});
    }
  }
  res.e2e["setup_s"] = SecondsSince(args.start);

  // --- measured rounds ----------------------------------------------------
  // A round runs every pair once. The end-to-end throughputs are medians
  // of per-round suite figures, so a stretch of interference on the host
  // moves one round, not the result.
  std::vector<MethodTotals> totals(methods.size());
  std::vector<std::vector<double>> cr(methods.size());  // first round only
  std::vector<double> round_compress, round_decompress;
  std::vector<double> call_us;
  Buffer packed;
  Buffer unpacked;
  const Clock::time_point run_start = Clock::now();
  for (int round = 0;; ++round) {
    std::vector<MethodTotals> this_round(methods.size());
    for (const Pair& p : pairs) {
      ++res.attempted;
      Compressor& codec = *codecs[p.method];
      const auto& desc = p.input->desc;
      packed.Resize(0);
      unpacked.Resize(0);

      const Clock::time_point c0 = Clock::now();
      const fcbench::Status cs = codec.Compress(p.input->bytes.span(), desc,
                                                &packed);
      const Clock::time_point c1 = Clock::now();
      fcbench::Status ds = cs;
      if (cs.ok()) ds = codec.Decompress(packed.span(), desc, &unpacked);
      const Clock::time_point c2 = Clock::now();

      if (args.inject == Inject::kFlipByte && round == 0 && &p == &pairs[0] &&
          !unpacked.empty()) {
        unpacked.data()[unpacked.size() / 2] ^= 0x01;
      }
      const bool exact =
          ds.ok() && unpacked.size() == p.input->bytes.size() &&
          std::memcmp(unpacked.data(), p.input->bytes.data(),
                      unpacked.size()) == 0;
      if (!exact) {
        ++res.failed;
        if (!p.known_fault) {
          res.Fail(methods[p.method] + " x " + p.input->info->name + ": " +
                   (ds.ok() ? std::string("round trip is not bit-exact")
                            : ds.ToString()));
        }
        continue;
      }
      const double c_s = Seconds(c1 - c0);
      const double d_s = Seconds(c2 - c1);
      totals[p.method].Add(p.input->bytes.size(), c_s, d_s);
      this_round[p.method].Add(p.input->bytes.size(), c_s, d_s);
      if (round == 0) {
        cr[p.method].push_back(static_cast<double>(p.input->bytes.size()) /
                               static_cast<double>(packed.size()));
      }
      call_us.push_back(c_s * 1e6);
      call_us.push_back(d_s * 1e6);
    }
    double c_mbps = 0, d_mbps = 0;
    SuiteFigures(this_round, &c_mbps, &d_mbps);
    round_compress.push_back(c_mbps);
    round_decompress.push_back(d_mbps);
    std::fprintf(stderr,
                 "perfbench: codec-suite round %d: compress %.2f MB/s, "
                 "decompress %.2f MB/s\n",
                 round, c_mbps, d_mbps);
    if (args.tiny || SecondsSince(run_start) >= args.seconds) break;
  }

  // --- metrics -------------------------------------------------------------
  std::vector<double> method_cr;
  for (size_t m = 0; m < methods.size(); ++m) {
    const MethodTotals& t = totals[m];
    if (t.raw_bytes == 0) {
      res.Fail(methods[m] + ": no pair round-tripped");
      continue;
    }
    // The paper's per-method CR: harmonic mean over datasets.
    const std::string prefix = "codec." + methods[m];
    res.layer[prefix + ".compress_mbps"] = t.compress_mbps();
    res.layer[prefix + ".decompress_mbps"] = t.decompress_mbps();
    res.layer[prefix + ".cr"] = HarmonicMean(cr[m]);
    method_cr.push_back(HarmonicMean(cr[m]));
  }
  res.e2e["write_mbps"] = Percentile(round_compress, 50);
  res.e2e["read_mbps"] = Percentile(round_decompress, 50);
  res.e2e["ratio"] = GeoMean(method_cr);
  res.e2e["op_p50_us"] = Percentile(call_us, 50);
  res.e2e["op_p99_us"] = Percentile(call_us, 99);
  res.layer["trace.write_mbps"] = res.e2e["write_mbps"];
  return res;
}

}  // namespace perfbench
