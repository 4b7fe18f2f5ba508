// snfe_kernelized: the paper's SNFE on one machine. Red owns the crypto unit
// and streams packets (3-word header + payload) to the censor (headers,
// channel 0) and, encrypted, to black (payload, channel 1); the censor vets
// headers and forwards them to black (channel 2). Every word crosses a
// one-word SEND/RECV, so this is the kernel-call-dense workload.
//
// The corpus guests (src/sepcheck/guest_corpus.cpp) send six fixed
// packets and stop; these streaming variants take a seeded packet table and
// a packet count patched into their images each round, and every regime
// halts once the round's packets have passed.
#include <cstdio>

#include "kernelized.h"
#include "src/base/rng.h"
#include "src/machine/devices.h"
#include "workloads.h"

namespace perfbench {

using sep::KernelizedSystem;
using sep::Word;

namespace {

constexpr char kRed[] = R"(
        .EQU CRYPTO, 0xE000   ; CCSR +0, DATA_IN +1, DATA_OUT +2
START:  MOV #TABLE, R3        ; cursor: dest, len, flags, len cleartext words
PKT:    MOV NLEFT, R2
        TST R2
        BEQ DONE
        DEC R2
        MOV R2, @NLEFT
        MOV (R3), R1          ; header: dest
        CLR R0
        JSR SENDW
        INC R3
        MOV (R3), R2          ; header: len = payload words to come
        MOV R2, R1
        CLR R0
        JSR SENDW
        INC R3
        MOV (R3), R1          ; header: flags
        CLR R0
        JSR SENDW
        INC R3
        MOV #CRYPTO, R4
PAY:    TST R2
        BEQ PKT
        MOV (R3), R1
        MOV R1, 1(R4)         ; encrypt through the trusted device
CWAIT:  MOV (R4), R5
        BIT #0x80, R5
        BEQ CWAIT
        MOV 2(R4), R1         ; ciphertext
        MOV #1, R0
        JSR SENDW
        INC R3
        DEC R2
        BR PAY
DONE:   TRAP 7
; send R1 on channel R0, retrying over SWAP until accepted
SENDW:  MOV R0, R5
SRETRY: MOV R5, R0
        TRAP 1
        TST R0
        BNE SDONE
        TRAP 0
        BR SRETRY
SDONE:  RTS
NLEFT:  .WORD 0
TABLE:  .WORD 0
)";

constexpr char kCensor[] = R"(
START:  MOV NLEFT, R2
        TST R2
        BEQ DONE
        DEC R2
        MOV R2, @NLEFT
        JSR RECVW
        MOV R1, R2            ; dest
        JSR RECVW
        MOV R1, R3            ; len
        JSR RECVW
        MOV R1, R4            ; flags
        CMP #63, R2
        BCS DROP              ; dest > 63
        CMP #128, R3
        BCS DROP              ; len > 128
        CMP #1, R4
        BCS DROP              ; flags > 1
        MOV R2, R1
        JSR SENDW
        MOV R3, R1
        JSR SENDW
        MOV R4, R1
        JSR SENDW
        BR START
DROP:   INC @DROPS
        BR START
DONE:   TRAP 7
RECVW:  CLR R0
        TRAP 2
        TST R0
        BNE RDONE
        TRAP 0
        BR RECVW
RDONE:  RTS
SENDW:  MOV #2, R0
        TRAP 1
        TST R0
        BNE SDONE
        TRAP 0
        BR SENDW
SDONE:  RTS
NLEFT:  .WORD 0
DROPS:  .WORD 0
)";

// Stores every packet (vetted header, then ciphertext) contiguously from
// BUF; STOREW refuses to write past BUFLAST.
constexpr char kBlack[] = R"(
        .EQU BUF, 0x100
        .EQU BUFLAST, 0xEFF
START:  MOV #BUF, R3
PKT:    MOV NLEFT, R2
        TST R2
        BEQ DONE
        DEC R2
        MOV R2, @NLEFT
        MOV #2, R0
        JSR RECVC             ; dest
        JSR STOREW
        MOV #2, R0
        JSR RECVC             ; len
        JSR STOREW
        MOV R1, R2
        MOV #2, R0
        JSR RECVC             ; flags
        JSR STOREW
PAY:    TST R2
        BEQ PKT
        MOV #1, R0
        JSR RECVC             ; ciphertext word
        JSR STOREW
        DEC R2
        BR PAY
DONE:   TRAP 7
RECVC:  MOV R0, R4
RLOOP:  MOV R4, R0
        TRAP 2
        TST R0
        BNE RDONE
        TRAP 0
        BR RLOOP
RDONE:  RTS
STOREW: CMP #BUFLAST, R3
        BCS SFULL
        MOV R1, (R3)
        INC R3
SFULL:  RTS
NLEFT:  .WORD 0
)";

constexpr int kRedRegime = 0, kCensorRegime = 1, kBlackRegime = 2;
constexpr std::uint32_t kPartitionWords = 4096;
constexpr Word kBlackBuf = 0x100;
constexpr int kPacketsPerRound = 64;
// Payload words per packet: the corpus SNFE guests (kSnfeRed) send len = 1.
// README.md reports how the results move with longer payloads.
constexpr Word kPayloadWords = 1;

struct Packet {
  Word dest = 0, len = 0, flags = 0;
  std::vector<Word> clear;
};

class SnfeWorkload : public KernelizedWorkload {
 public:
  explicit SnfeWorkload(std::uint64_t seed)
      : seed_(seed),
        key_(DeriveSeed(seed, 0xC4)),
        red_(AssembleOrDie("red", kRed)),
        censor_(AssembleOrDie("censor", kCensor)),
        black_(AssembleOrDie("black", kBlack)) {}

  const char* device_name() const override { return "crypto"; }

  std::unique_ptr<KernelizedSystem> Build(const DeviceWrap& wrap) const override {
    sep::SystemBuilder builder;
    const int crypto =
        builder.AddDevice(wrap(std::make_unique<sep::CryptoUnit>("crypto", 16, 4, key_, 2)));
    const bool ok =
        builder.AddRegime("red", kPartitionWords, kRed, {crypto}).ok() &&
        builder.AddRegime("censor", 512, kCensor).ok() &&
        builder.AddRegime("black", kPartitionWords, kBlack).ok();
    builder.AddChannel("red->censor", kRedRegime, kCensorRegime, 16);
    builder.AddChannel("red->black", kRedRegime, kBlackRegime, 16);
    builder.AddChannel("censor->black", kCensorRegime, kBlackRegime, 16);
    sep::Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
    if (!ok || !system.ok()) {
      std::fprintf(stderr, "perfbench: building the SNFE deployment failed\n");
      std::exit(2);
    }
    return std::move(system.value());
  }

  void Prepare(std::uint64_t round) override {
    sep::Rng rng(DeriveSeed(seed_, round));
    packets_.assign(kPacketsPerRound, Packet{});
    table_.clear();
    for (Packet& p : packets_) {
      p.dest = static_cast<Word>(rng.NextBelow(64));
      p.len = kPayloadWords;
      p.flags = static_cast<Word>(rng.NextBelow(2));
      table_.insert(table_.end(), {p.dest, p.len, p.flags});
      for (Word i = 0; i < p.len; ++i) {
        p.clear.push_back(static_cast<Word>(rng.Next()));
      }
      table_.insert(table_.end(), p.clear.begin(), p.clear.end());
    }
  }

  void Load(KernelizedSystem& system) const override {
    const Word count = static_cast<Word>(packets_.size());
    WritePartition(system, kRedRegime, red_.SymbolOr("TABLE", 0), table_);
    WritePartition(system, kRedRegime, red_.SymbolOr("NLEFT", 0), {count});
    WritePartition(system, kCensorRegime, censor_.SymbolOr("NLEFT", 0), {count});
    WritePartition(system, kBlackRegime, black_.SymbolOr("NLEFT", 0), {count});
  }

  // Every packet must reach black in order with its vetted header, and its
  // ciphertext must decrypt under the shared key: the crypto unit's n-th
  // operation uses keystream word n.
  std::uint64_t Verify(const KernelizedSystem& system, Result& result) const override {
    result.Check(ReadPartition(system, kCensorRegime, censor_.SymbolOr("DROPS", 0)) == 0,
                 "censor dropped a valid header");
    std::uint64_t words = 0, n = 0;
    Word addr = kBlackBuf;
    for (std::size_t k = 0; k < packets_.size(); ++k) {
      const Packet& p = packets_[k];
      bool ok = ReadPartition(system, kBlackRegime, addr) == p.dest &&
                ReadPartition(system, kBlackRegime, addr + 1) == p.len &&
                ReadPartition(system, kBlackRegime, addr + 2) == p.flags;
      addr += 3;
      for (Word i = 0; i < p.len; ++i, ++addr, ++n) {
        const Word cipher = ReadPartition(system, kBlackRegime, addr);
        ok = ok && cipher != p.clear[i] &&
             static_cast<Word>(cipher ^ sep::CryptoUnit::Keystream(key_, n)) == p.clear[i];
      }
      result.Check(ok, "packet " + std::to_string(k) + " arrived altered or out of order");
      words += ok ? p.len : 0;
    }
    return words;
  }

  // From red's first accepted header SEND to black's last RECV of the
  // packet (its final ciphertext word, or its flags if that came later).
  void Latencies(const ChannelEvents& events, std::vector<double>& out) const override {
    if (events.sends.empty() || events.recvs.size() < 3) {
      return;
    }
    const std::vector<sep::Tick>& header_sends = events.sends[0];
    const std::vector<sep::Tick>& payload_recvs = events.recvs[1];
    const std::vector<sep::Tick>& header_recvs = events.recvs[2];
    std::size_t payload = 0;
    for (std::size_t k = 0; k < packets_.size(); ++k) {
      payload += packets_[k].len;
      if (3 * k + 2 >= header_sends.size() || 3 * k + 2 >= header_recvs.size() ||
          payload > payload_recvs.size()) {
        return;
      }
      const sep::Tick last = std::max(payload_recvs[payload - 1], header_recvs[3 * k + 2]);
      out.push_back(static_cast<double>(last - header_sends[3 * k]));
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t key_;
  sep::AssembledProgram red_, censor_, black_;
  std::vector<Packet> packets_;
  std::vector<Word> table_;
};

}  // namespace

void RunSnfeKernelized(const Options& options, Result& result) {
  SnfeWorkload workload(options.seed);
  std::printf("seeds: run %llu, crypto key 0x%llx, round r uses DeriveSeed(run, r)\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(DeriveSeed(options.seed, 0xC4)));
  RunKernelized(workload, options, result);
}

}  // namespace perfbench
