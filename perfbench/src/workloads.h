// The benchmark's workloads. Each runs from one seed, measures for
// options.seconds, checks every output into `result` and reports either
// the end-to-end metrics (options.trace == false) or the per-layer split.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

namespace perfbench {

void RunSnfeKernelized(const Options& options, Result& result);
void RunGuardRing(const Options& options, Result& result);
// The exhaustive checker on the E16 cycle configuration.
void RunVerify(const Options& options, Result& result);
void RunSepcheckCatalog(const Options& options, Result& result);
void RunChaosSweep(const Options& options, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
