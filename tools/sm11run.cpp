// sm11run — assemble and execute an SM-11 program from the command line.
//
//   sm11run prog.s                 run bare (kernel mode, identity mapping)
//   sm11run --regime prog.s       run as the sole regime of a separation
//                                  kernel (user mode, kernel-call ABI)
//   sm11run --steps N prog.s      step budget (default 100000)
//   sm11run --dump ADDR COUNT     print a memory range after the run
//   sm11run --listing prog.s      print the assembler listing and exit
//   sm11run --disasm prog.s       disassemble each instruction as it runs
//   sm11run --trace FILE prog.s   write a Chrome trace-event JSON of the run
//   sm11run --metrics FILE prog.s write the run's machine (and kernel)
//                                  counters as flat "name value" lines
//
// The program's serial line (if it uses one) is the process's stdin/stdout:
// input bytes are injected into the device before the run; transmitted
// words are printed as characters afterwards.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/kernel_system.h"
#include "src/base/strings.h"
#include "src/machine/devices.h"
#include "src/machine/machine.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/sm11asm/assembler.h"
#include "tools/run_metrics.h"

namespace {

struct Options {
  std::string path;
  bool as_regime = false;
  bool listing = false;
  bool disasm = false;
  std::size_t steps = 100000;
  bool dump = false;
  unsigned dump_addr = 0;
  unsigned dump_count = 0;
  std::string trace_path;
  std::string metrics_path;
  bool superblock = true;
};

constexpr char kUsage[] =
    "usage: sm11run [--regime] [--steps N] [--dump ADDR COUNT] [--listing]\n"
    "               [--disasm] [--trace FILE] [--metrics FILE]\n"
    "               [--superblock on|off] prog.s\n";

int UsageError(const char* message, const char* value) {
  std::fprintf(stderr, "sm11run: %s: %s\n%s", message, value, kUsage);
  return 2;
}

sep::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return sep::Err("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Both runners leave the run's counters in `metrics` (tools/run_metrics.h).
int RunBare(const sep::AssembledProgram& program, const Options& options,
            sep::obs::MetricLines& metrics) {
  using namespace sep;
  MachineConfig config;
  config.memory_words = 1u << 15;
  Machine machine(config);
  machine.set_superblock_enabled(options.superblock);
  for (int page = 0; page < 4; ++page) {
    machine.mmu().SetPage(CpuMode::kKernel, page,
                          {static_cast<PhysAddr>(page) * kPageWords, kPageWords,
                           PageAccess::kReadWrite});
  }
  machine.mmu().SetPage(CpuMode::kKernel, 7, {config.io_base, kPageWords,
                                              PageAccess::kReadWrite});
  int slu = machine.AddDevice(std::make_unique<SerialLine>("console", 16, 4, 1));

  machine.memory().LoadImage(program.base, program.words);
  machine.cpu().set_pc(program.EntryPoint());
  machine.cpu().set_sp(0x1000);

  // stdin (if redirected) feeds the console device.
  if (!isatty(0)) {
    int c;
    while ((c = std::getchar()) != EOF) {
      machine.device(slu).InjectInput(static_cast<Word>(c));
    }
  }

  std::size_t executed = 0;
  while (executed < options.steps && !machine.halted()) {
    if (options.disasm && !machine.waiting()) {
      const Word pc = machine.cpu().pc();
      std::optional<Word> w0 = machine.PeekVirt(pc);
      if (w0.has_value()) {
        if (std::optional<DecodedInsn> insn = Decode(*w0)) {
          const Word e1 = machine.PeekVirt(pc + 1).value_or(0);
          const Word e2 = machine.PeekVirt(pc + 2).value_or(0);
          std::fprintf(stderr, "%s: %s\n", Octal(pc).c_str(),
                       Disassemble(*insn, e1, e2).c_str());
        }
      }
    }
    machine.Step();
    ++executed;
  }

  std::vector<Word> out = machine.device(slu).DrainOutput();
  for (Word w : out) {
    std::putchar(static_cast<int>(w & 0xFF));
  }
  std::fprintf(stderr, "\n[%zu steps, %s]\n", executed,
               machine.halted() ? "halted" : "step budget exhausted");
  if (options.dump) {
    for (unsigned i = 0; i < options.dump_count; ++i) {
      const unsigned addr = options.dump_addr + i;
      if (machine.memory().InRange(addr)) {
        std::printf("%06o: %06o\n", addr, machine.memory().Read(addr));
      }
    }
  }
  metrics = RunMetrics(machine, nullptr);
  return machine.halted() ? 0 : 3;
}

int RunRegime(const std::string& source, const Options& options,
              sep::obs::MetricLines& metrics) {
  using namespace sep;
  SystemBuilder builder;
  int slu = builder.AddDevice(std::make_unique<SerialLine>("console", 16, 4, 1));
  Result<int> regime = builder.AddRegime("main", 4096, source, {slu});
  if (!regime.ok()) {
    std::fprintf(stderr, "error: %s\n", regime.error().c_str());
    return 1;
  }
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  if (!system.ok()) {
    std::fprintf(stderr, "error: %s\n", system.error().c_str());
    return 1;
  }
  (*system)->machine().set_superblock_enabled(options.superblock);
  if (!isatty(0)) {
    int c;
    while ((c = std::getchar()) != EOF) {
      (*system)->machine().device(slu).InjectInput(static_cast<Word>(c));
    }
  }
  std::size_t executed = (*system)->Run(options.steps);
  std::vector<Word> out = (*system)->machine().device(slu).DrainOutput();
  for (Word w : out) {
    std::putchar(static_cast<int>(w & 0xFF));
  }
  std::fprintf(stderr, "\n[%zu steps, %s; %llu kernel calls, %llu swaps]\n", executed,
               (*system)->machine().halted() ? "halted" : "budget exhausted",
               static_cast<unsigned long long>((*system)->kernel().KernelCallCount()),
               static_cast<unsigned long long>((*system)->kernel().SwapCount()));
  if (options.dump) {
    const RegimeConfig& rc = (*system)->kernel().config().regimes[0];
    for (unsigned i = 0; i < options.dump_count; ++i) {
      const unsigned addr = options.dump_addr + i;
      if (addr < rc.mem_words) {
        std::printf("%06o: %06o\n", addr,
                    (*system)->machine().memory().Read(rc.mem_base + addr));
      }
    }
  }
  metrics = RunMetrics((*system)->machine(), &(*system)->kernel());
  return (*system)->machine().halted() ? 0 : 3;
}

}  // namespace

int WriteFileOrDie(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "sm11run: cannot write %s\n", path.c_str());
    return 2;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return 0;
}

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--regime") {
      options.as_regime = true;
    } else if (arg == "--listing") {
      options.listing = true;
    } else if (arg == "--disasm") {
      options.disasm = true;
    } else if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--trace" && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      options.metrics_path = argv[++i];
    } else if (arg == "--superblock" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "on") {
        options.superblock = true;
      } else if (value == "off") {
        options.superblock = false;
      } else {
        return UsageError("--superblock must be 'on' or 'off'", argv[i]);
      }
    } else if (arg == "--steps" && i + 1 < argc) {
      const std::optional<long long> parsed = sep::ParseInt(argv[++i], 1, 1LL << 40, 0);
      if (!parsed.has_value()) {
        return UsageError("--steps needs a positive step count", argv[i]);
      }
      options.steps = static_cast<std::size_t>(*parsed);
    } else if (arg == "--dump" && i + 2 < argc) {
      options.dump = true;
      const std::optional<long long> addr = sep::ParseInt(argv[++i], 0, 0xFFFF, 0);
      if (!addr.has_value()) {
        return UsageError("--dump ADDR must be a 16-bit address", argv[i]);
      }
      const std::optional<long long> count = sep::ParseInt(argv[++i], 0, 0x10000, 0);
      if (!count.has_value()) {
        return UsageError("--dump COUNT must be in [0, 65536]", argv[i]);
      }
      options.dump_addr = static_cast<unsigned>(*addr);
      options.dump_count = static_cast<unsigned>(*count);
    } else if (!arg.empty() && arg[0] != '-') {
      options.path = arg;
    } else {
      return UsageError("unknown or incomplete argument", arg.c_str());
    }
  }
  if (options.path.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  sep::Result<std::string> source = ReadFile(options.path);
  if (!source.ok()) {
    std::fprintf(stderr, "error: %s\n", source.error().c_str());
    return 1;
  }
  sep::Result<sep::AssembledProgram> program = sep::Assemble(*source);
  if (!program.ok()) {
    std::fprintf(stderr, "assembly error: %s\n", program.error().c_str());
    return 1;
  }
  if (options.listing) {
    for (const std::string& line : program->listing) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  const bool trace = !options.trace_path.empty();
  if (trace) {
    sep::obs::Recorder().Start(std::size_t{1} << 18);
  }
  sep::obs::MetricLines metrics;
  const int rc = options.as_regime ? RunRegime(*source, options, metrics)
                                   : RunBare(*program, options, metrics);
  if (trace) {
    sep::obs::Recorder().Stop();
    const int wrc = WriteFileOrDie(options.trace_path,
                                   sep::obs::ChromeTraceJson(sep::obs::Recorder().Drain()));
    if (wrc != 0) return wrc;
  }
  if (!options.metrics_path.empty()) {
    const int wrc = WriteFileOrDie(options.metrics_path, sep::obs::MetricsText(metrics));
    if (wrc != 0) return wrc;
  }
  return rc;
}
