// The run loop shared by the two kernelized workloads (snfe_kernelized,
// guard_ring): a deployment is built once, and every round runs a fresh
// clone of it on that round's seeded inputs through KernelizedSystem::Run.
#ifndef PERFBENCH_KERNELIZED_H_
#define PERFBENCH_KERNELIZED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "tracing.h"
#include "src/core/kernel_system.h"
#include "src/sm11asm/assembler.h"

namespace perfbench {

// Applied to every device before it is added to the deployment: identity
// for the timed run, a TracingDevice for the traced one.
using DeviceWrap = std::function<std::unique_ptr<sep::Device>(std::unique_ptr<sep::Device>)>;

class KernelizedWorkload {
 public:
  virtual ~KernelizedWorkload() = default;

  // Short name of the one device the deployment owns ("crypto", "clock").
  virtual const char* device_name() const = 0;
  virtual std::unique_ptr<sep::KernelizedSystem> Build(const DeviceWrap& wrap) const = 0;
  // Generates round `round`'s inputs from the run seed; Load and Verify use
  // the inputs of the last prepared round.
  virtual void Prepare(std::uint64_t round) = 0;
  virtual void Load(sep::KernelizedSystem& system) const = 0;
  // Checks the outputs of a round that ran to completion; returns the
  // payload words verified (the workload's unit of work).
  virtual std::uint64_t Verify(const sep::KernelizedSystem& system, Result& result) const = 0;
  // Delivery latency, in machine ticks, of every packet / message of the
  // round, from the channel events the forwarding client recorded.
  virtual void Latencies(const ChannelEvents& events, std::vector<double>& out) const = 0;
};

void RunKernelized(KernelizedWorkload& workload, const Options& options, Result& result);

// Helpers for the workloads' guest programs.

// Assembles `source` or aborts the run with the assembler's message.
sep::AssembledProgram AssembleOrDie(const std::string& name, const std::string& source);

// Writes `words` into a regime's partition at partition-relative `addr`.
void WritePartition(sep::KernelizedSystem& system, int regime, sep::Word addr,
                    const std::vector<sep::Word>& words);
sep::Word ReadPartition(const sep::KernelizedSystem& system, int regime, sep::Word addr);

}  // namespace perfbench

#endif  // PERFBENCH_KERNELIZED_H_
