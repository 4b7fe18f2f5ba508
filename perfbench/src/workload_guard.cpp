// guard_ring: HIGH -> guard -> LOW over two shared-memory ring channels, in
// 64-word messages. The guard scans every word, redacts digits and
// republishes the message on its outbound ring; it sleeps in AWAIT on its
// inbound ring's doorbell and owns a line clock whose SETVEC handler runs on
// every tick, so interrupt forwarding and RETI are on the path. Payload
// never crosses a trap boundary: this is the dispatch-dense workload, where
// the instruction-execution engine does almost all the work.
#include <cstdio>

#include "kernelized.h"
#include "src/base/rng.h"
#include "src/machine/devices.h"
#include "workloads.h"

namespace perfbench {

using sep::KernelizedSystem;
using sep::Word;

namespace {

// Ring 0: HIGH (producer, window 0x8000) -> guard (consumer, 0x8000).
// Ring 1: guard (producer, 0xA000) -> LOW (consumer, 0x8000).
// Capacity 256 holds four messages; a message never wraps the window
// because head and tail move in whole messages. Mirrors of the indices
// live in each regime's own memory (the kernel's copies are unreadable).

constexpr char kHigh[] = R"(
START:  MOV #TABLE, R5        ; next message to publish
MSG:    MOV NLEFT, R4
        TST R4
        BEQ DONE
SPACE:  CLR R0
        TRAP 13               ; RINGSTAT ring 0 -> R1 = free words
        CMP #63, R1
        BCS ROOM
        TRAP 0                ; ring full: let the guard run
        BR SPACE
ROOM:   MOV TAIL, R3
        ADD #0x8000, R3
        MOV #64, R4
FILL:   MOV (R5), R1
        MOV R1, (R3)
        INC R5
        INC R3
        DEC R4
        BNE FILL
        MOV TAIL, R3
        ADD #64, R3
        BIC #0xFF00, R3
        MOV R3, @TAIL
        CLR R0
        MOV #64, R1
        TRAP 11               ; RINGPUT: publish the message
        DEC @NLEFT
        BR MSG
DONE:   TRAP 7
NLEFT:  .WORD 0
TAIL:   .WORD 0
TABLE:  .WORD 0
)";

constexpr char kGuard[] = R"(
        .EQU LKS, 0xE000
START:  CLR R0
        MOV #CLKH, R1
        TRAP 4                ; SETVEC line 0: the clock
        MOV #1, R0
        MOV #BELLH, R1
        TRAP 4                ; SETVEC line 1: ring 0's doorbell
        MOV #0x40, @LKS       ; clock interrupts on
MAIN:   TST @NLEFT
        BEQ DONE
        CLR R0
        TRAP 13               ; RINGSTAT ring 0 -> R0 = occupancy
        CMP #63, R0
        BCS HAVE
        TRAP 6                ; AWAIT the doorbell (or a clock tick)
        BR MAIN
HAVE:   MOV #1, R0
        TRAP 13               ; RINGSTAT ring 1 -> R1 = free words
        CMP #63, R1
        BCS ROOM
        TRAP 0                ; outbound ring full: let LOW drain
        BR MAIN
ROOM:   MOV HEAD, R2
        ADD #0x8000, R2
        MOV TAIL, R3
        ADD #0xA000, R3
        MOV #64, R4
SCAN:   MOV (R2), R1
        CMP #'9', R1
        BCS KEEP              ; above '9'
        CMP #'0'-1, R1
        BCC KEEP              ; below '0'
        MOV #'#', R1          ; redact a digit
KEEP:   MOV R1, (R3)
        INC R2
        INC R3
        DEC R4
        BNE SCAN
        MOV TAIL, R3
        ADD #64, R3
        BIC #0xFF00, R3
        MOV R3, @TAIL
        MOV #1, R0
        MOV #64, R1
        TRAP 11               ; RINGPUT ring 1 (space was checked)
        MOV HEAD, R2
        ADD #64, R2
        BIC #0xFF00, R2
        MOV R2, @HEAD
        CLR R0
        MOV #64, R1
        TRAP 12               ; RINGGET ring 0: release the message
        DEC @NLEFT
        BR MAIN
DONE:   CLR @LKS
        TRAP 7
CLKH:   MOV #0x40, @LKS       ; acknowledge the tick, keep interrupts on
        INC @TICKS
        TRAP 5                ; RETI
BELLH:  INC @BELLS
        TRAP 5
NLEFT:  .WORD 0
HEAD:   .WORD 0
TAIL:   .WORD 0
TICKS:  .WORD 0
BELLS:  .WORD 0
)";

// Checksums each message as it arrives (Fletcher-style running sums S1, S2
// over its 64 words) into the next pair of words at SUMS.
constexpr char kLow[] = R"(
MAIN:   TST @NLEFT
        BEQ DONE
        MOV #1, R0
        TRAP 13               ; RINGSTAT ring 1 -> R0 = occupancy
        CMP #63, R0
        BCS HAVE
        TRAP 6                ; AWAIT the doorbell
        BR MAIN
HAVE:   MOV HEAD, R3
        ADD #0x8000, R3
        CLR R4
        CLR R5
        MOV #64, R2
SUM:    MOV (R3), R1
        ADD R1, R4
        ADD R4, R5
        INC R3
        DEC R2
        BNE SUM
        MOV CUR, R2
        MOV R4, (R2)
        MOV R5, 1(R2)
        ADD #2, @CUR
        MOV HEAD, R3
        ADD #64, R3
        BIC #0xFF00, R3
        MOV R3, @HEAD
        MOV #1, R0
        MOV #64, R1
        TRAP 12               ; RINGGET ring 1
        DEC @NLEFT
        BR MAIN
DONE:   TRAP 7
NLEFT:  .WORD 0
HEAD:   .WORD 0
CUR:    .WORD SUMS
SUMS:   .BLKW 192
)";

constexpr int kHighRegime = 0, kGuardRegime = 1, kLowRegime = 2;
constexpr int kMessageWords = 64;
constexpr int kMessagesPerRound = 96;
// Ticks between clock interrupts. No deployment in the repository fixes a
// rate (its tests use 2..25 ticks to provoke interrupts); 500 keeps the
// workload dispatch-dense. README.md reports how the results move with it.
constexpr int kClockInterval = 500;

// Message text is drawn character by character from the HIGH-side messages
// of the ACCAT guard scenario (examples/accat_guard.cpp), so the share of
// digits the guard redacts (14 of 118 characters) is that scenario's.
constexpr char kHighTraffic[] =
    "UNCLAS:weather sector 4: clear skies"
    "REVIEW:convoy 7 at grid 1234 5678, ETA 0600"
    "TS codeword material - never releasable";

Word RandomChar(sep::Rng& rng) {
  return static_cast<Word>(kHighTraffic[rng.NextBelow(sizeof kHighTraffic - 1)]);
}

Word Redact(Word w) { return w >= '0' && w <= '9' ? Word{'#'} : w; }

class GuardWorkload : public KernelizedWorkload {
 public:
  explicit GuardWorkload(std::uint64_t seed)
      : seed_(seed),
        high_(AssembleOrDie("high", kHigh)),
        guard_(AssembleOrDie("guard", kGuard)),
        low_(AssembleOrDie("low", kLow)) {}

  const char* device_name() const override { return "clock"; }

  std::unique_ptr<KernelizedSystem> Build(const DeviceWrap& wrap) const override {
    sep::SystemBuilder builder;
    const int clock =
        builder.AddDevice(wrap(std::make_unique<sep::LineClock>("clock", 20, 6, kClockInterval)));
    const bool ok = builder.AddRegime("high", 8192, kHigh).ok() &&
                    builder.AddRegime("guard", 512, kGuard, {clock}).ok() &&
                    builder.AddRegime("low", 512, kLow).ok();
    builder.AddSharedRing("high->guard", kHighRegime, kGuardRegime, 256);
    builder.AddSharedRing("guard->low", kGuardRegime, kLowRegime, 256);
    sep::Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
    if (!ok || !system.ok()) {
      std::fprintf(stderr, "perfbench: building the guard deployment failed\n");
      std::exit(2);
    }
    return std::move(system.value());
  }

  void Prepare(std::uint64_t round) override {
    sep::Rng rng(DeriveSeed(seed_, round));
    table_.resize(static_cast<std::size_t>(kMessagesPerRound) * kMessageWords);
    for (Word& w : table_) {
      w = RandomChar(rng);
    }
  }

  void Load(KernelizedSystem& system) const override {
    const Word count = kMessagesPerRound;
    WritePartition(system, kHighRegime, high_.SymbolOr("TABLE", 0), table_);
    WritePartition(system, kHighRegime, high_.SymbolOr("NLEFT", 0), {count});
    WritePartition(system, kGuardRegime, guard_.SymbolOr("NLEFT", 0), {count});
    WritePartition(system, kLowRegime, low_.SymbolOr("NLEFT", 0), {count});
  }

  // LOW's checksum of every message must equal the checksum of a C++
  // redaction of the message HIGH published.
  std::uint64_t Verify(const KernelizedSystem& system, Result& result) const override {
    const Word sums = low_.SymbolOr("SUMS", 0);
    std::uint64_t words = 0;
    for (int m = 0; m < kMessagesPerRound; ++m) {
      Word s1 = 0, s2 = 0;
      const Word* message = &table_[static_cast<std::size_t>(m * kMessageWords)];
      for (int i = 0; i < kMessageWords; ++i) {
        s1 = static_cast<Word>(s1 + Redact(message[i]));
        s2 = static_cast<Word>(s2 + s1);
      }
      const Word at = static_cast<Word>(sums + 2 * m);
      const bool ok = ReadPartition(system, kLowRegime, at) == s1 &&
                      ReadPartition(system, kLowRegime, at + 1) == s2;
      result.Check(ok, "message " + std::to_string(m) + " reached LOW altered or out of order");
      words += ok ? kMessageWords : 0;
    }
    return words;
  }

  // From HIGH's accepted RINGPUT of a message to LOW's RINGGET of it.
  void Latencies(const ChannelEvents& events, std::vector<double>& out) const override {
    if (events.ringputs.empty() || events.ringgets.size() < 2) {
      return;
    }
    const std::vector<sep::Tick>& puts = events.ringputs[0];
    const std::vector<sep::Tick>& gets = events.ringgets[1];
    for (std::size_t m = 0; m < puts.size() && m < gets.size(); ++m) {
      out.push_back(static_cast<double>(gets[m] - puts[m]));
    }
  }

 private:
  std::uint64_t seed_;
  sep::AssembledProgram high_, guard_, low_;
  std::vector<Word> table_;
};

}  // namespace

void RunGuardRing(const Options& options, Result& result) {
  GuardWorkload workload(options.seed);
  std::printf("seeds: run %llu, round r uses DeriveSeed(run, r)\n",
              static_cast<unsigned long long>(options.seed));
  RunKernelized(workload, options, result);
}

}  // namespace perfbench
