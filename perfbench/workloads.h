// The benchmark's workloads. Each runs in its own process, builds its
// inputs from Args::seed, measures for Args::seconds in whole rounds, and
// checks the program's outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// codec-suite: 9 lossless CPU methods x 33 Table-3 datasets.
Result RunCodecSuite(const Args& args);

/// ingest-nosync (durable = false) and ingest-fsync (durable = true).
Result RunIngest(const Args& args, bool durable);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
