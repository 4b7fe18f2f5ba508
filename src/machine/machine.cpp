#include "src/machine/machine.h"

#include <algorithm>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/machine/interp.h"
#include "src/obs/trace.h"

namespace sep {

// The bus the CPU sees: MMU translation, then RAM or I/O-page routing.
// `final` so the templated interpreter instantiation below calls Read and
// Write directly instead of through the vtable. The compiler keeps them out
// of line: a Release build's RunThreaded makes 87 direct calls to Read and
// 39 to Write. Forcing them inline slowed guard_ring and snfe_kernelized
// (docs/PERFORMANCE.md §13), so they stay calls.
class MachineBus final : public Bus {
 public:
  // `refuse_io` is for Run's batches, where the devices lag behind the CPU:
  // an access to the I/O page is then refused — it fails like a bus fault,
  // touches no device and sets refused(). Every interpreter path commits
  // nothing on a failed access and a store is always an instruction's last
  // access, so the refused instruction leaves no trace and Run replays it
  // exactly.
  MachineBus(Machine& m, bool refuse_io) : m_(m), refuse_io_(refuse_io) {}

  bool refused() const { return refused_; }

  bool Read(VirtAddr addr, AccessKind kind, Word* out) override {
    auto tr = m_.mmu_.Translate(m_.cpu_.psw.mode(), addr, kind);
    if (!tr.translation.has_value()) {
      return false;
    }
    return PhysAccess(tr.translation->phys, /*write=*/false, out, 0);
  }

  bool Write(VirtAddr addr, Word value) override {
    auto tr = m_.mmu_.Translate(m_.cpu_.psw.mode(), addr, AccessKind::kWriteData);
    if (!tr.translation.has_value()) {
      return false;
    }
    return PhysAccess(tr.translation->phys, /*write=*/true, nullptr, value);
  }

 private:
  bool PhysAccess(PhysAddr phys, bool write, Word* out, Word value) {
    if (phys >= m_.config_.io_base) {
      if (refuse_io_) {
        refused_ = true;
        return false;
      }
      const PhysAddr off = phys - m_.config_.io_base;
      const int slot = static_cast<int>(off / kDeviceRegSpan);
      const int reg = static_cast<int>(off % kDeviceRegSpan);
      if (slot >= static_cast<int>(m_.devices_.size()) ||
          reg >= m_.devices_[slot]->register_count()) {
        return false;  // bus timeout: nonexistent device register
      }
      if (write) {
        m_.devices_[slot]->WriteRegister(reg, value);
      } else {
        *out = m_.devices_[slot]->ReadRegister(reg);
      }
      return true;
    }
    if (!m_.memory_.InRange(phys)) {
      return false;
    }
    if (write) {
      m_.memory_.Write(phys, value);
    } else {
      *out = m_.memory_.Read(phys);
    }
    return true;
  }

  Machine& m_;
  const bool refuse_io_;
  bool refused_ = false;
};

namespace {

// Handler indices for RunThreaded's dispatch table. kFormGeneric covers
// every opcode without a direct handler (HALT/WAIT/RTI/JMP), JSR in
// register mode (an illegal instruction) and every ALU instruction with an
// operand addressed through the PC register, whose mid-instruction PC value
// only the generic scratch path models.
enum DirectForm : std::uint8_t {
  kFormGeneric = 0,
  kFormNop,
  kFormBr,
  kFormBeq,
  kFormBne,
  kFormBmi,
  kFormBpl,
  kFormBcs,
  kFormBcc,
  kFormBvs,
  kFormBvc,
  kFormBlt,
  kFormBge,
  kFormBgt,
  kFormBle,
  kFormMov,
  kFormAdd,
  kFormSub,
  kFormCmp,
  kFormBit,
  kFormBic,
  kFormBis,
  kFormXor,
  kFormClr,
  kFormInc,
  kFormDec,
  kFormNeg,
  kFormCom,
  kFormTst,
  kFormAsr,
  kFormAsl,
  // JSR (not in register mode), RTS and TRAP: calls, returns and kernel
  // entries, run directly by ExecuteCallForm. Never stitched into a
  // superblock: a trace ends before them.
  kFormCall,
  // Not produced by ClassifyForm: installed on a predecoded entry that
  // anchors a superblock, so the ordinary dispatch jump lands in the
  // superblock entry sequence with zero extra cost on non-anchored entries.
  kFormSbEnter,
};

bool UsesPcOperand(const OperandSpec& spec) {
  return (spec.mode == AddrMode::kReg || spec.mode == AddrMode::kRegDeferred ||
          spec.mode == AddrMode::kIndexed) &&
         spec.reg == kPc;
}

std::uint8_t ClassifyForm(const DecodedInsn& insn) {
  switch (insn.opcode) {
    case Opcode::kNop:
      return kFormNop;
    case Opcode::kBr:
      return kFormBr;
    case Opcode::kBeq:
      return kFormBeq;
    case Opcode::kBne:
      return kFormBne;
    case Opcode::kBmi:
      return kFormBmi;
    case Opcode::kBpl:
      return kFormBpl;
    case Opcode::kBcs:
      return kFormBcs;
    case Opcode::kBcc:
      return kFormBcc;
    case Opcode::kBvs:
      return kFormBvs;
    case Opcode::kBvc:
      return kFormBvc;
    case Opcode::kBlt:
      return kFormBlt;
    case Opcode::kBge:
      return kFormBge;
    case Opcode::kBgt:
      return kFormBgt;
    case Opcode::kBle:
      return kFormBle;
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kCmp:
    case Opcode::kBit:
    case Opcode::kBic:
    case Opcode::kBis:
    case Opcode::kXor: {
      if (UsesPcOperand(insn.src) || UsesPcOperand(insn.dst)) {
        return kFormGeneric;
      }
      switch (insn.opcode) {
        case Opcode::kMov:
          return kFormMov;
        case Opcode::kAdd:
          return kFormAdd;
        case Opcode::kSub:
          return kFormSub;
        case Opcode::kCmp:
          return kFormCmp;
        case Opcode::kBit:
          return kFormBit;
        case Opcode::kBic:
          return kFormBic;
        case Opcode::kBis:
          return kFormBis;
        default:
          return kFormXor;
      }
    }
    case Opcode::kClr:
    case Opcode::kInc:
    case Opcode::kDec:
    case Opcode::kNeg:
    case Opcode::kCom:
    case Opcode::kTst:
    case Opcode::kAsr:
    case Opcode::kAsl: {
      if (UsesPcOperand(insn.dst)) {
        return kFormGeneric;
      }
      switch (insn.opcode) {
        case Opcode::kClr:
          return kFormClr;
        case Opcode::kInc:
          return kFormInc;
        case Opcode::kDec:
          return kFormDec;
        case Opcode::kNeg:
          return kFormNeg;
        case Opcode::kCom:
          return kFormCom;
        case Opcode::kTst:
          return kFormTst;
        case Opcode::kAsr:
          return kFormAsr;
        default:
          return kFormAsl;
      }
    }
    case Opcode::kJsr:
      return insn.dst.mode == AddrMode::kReg ? kFormGeneric : kFormCall;
    case Opcode::kRts:
    case Opcode::kTrap:
      return kFormCall;
    default:
      return kFormGeneric;
  }
}

}  // namespace

Machine::Machine(const MachineConfig& config) : config_(config), memory_(config.memory_words) {
  SEP_CHECK(config.io_base >= config.memory_words);
}

std::unique_ptr<Machine> Machine::Clone() const {
  auto copy = std::make_unique<Machine>(config_);
  copy->memory_ = memory_;
  copy->mmu_ = mmu_;
  copy->cpu_ = cpu_;
  for (const auto& dev : devices_) {
    copy->devices_.push_back(dev->Clone());
  }
  copy->halted_ = halted_;
  copy->waiting_ = waiting_;
  copy->tick_ = tick_;
  return copy;
}

int Machine::AddDevice(std::unique_ptr<Device> device) {
  devices_.push_back(std::move(device));
  return static_cast<int>(devices_.size()) - 1;
}

Device* Machine::FindDevice(const std::string& name) {
  for (auto& dev : devices_) {
    if (dev->name() == name) {
      return dev.get();
    }
  }
  return nullptr;
}

Word Machine::PhysRead(PhysAddr addr) const {
  if (addr >= config_.io_base) {
    const PhysAddr off = addr - config_.io_base;
    const int slot = static_cast<int>(off / kDeviceRegSpan);
    const int reg = static_cast<int>(off % kDeviceRegSpan);
    SEP_CHECK(slot < static_cast<int>(devices_.size()));
    // Register reads can have side effects, so a const machine must go
    // through the non-const overload; tests use device accessors instead.
    return const_cast<Device&>(*devices_[slot]).ReadRegister(reg);
  }
  return memory_.Read(addr);
}

void Machine::PhysWrite(PhysAddr addr, Word value) {
  if (addr >= config_.io_base) {
    const PhysAddr off = addr - config_.io_base;
    const int slot = static_cast<int>(off / kDeviceRegSpan);
    const int reg = static_cast<int>(off % kDeviceRegSpan);
    SEP_CHECK(slot < static_cast<int>(devices_.size()));
    devices_[slot]->WriteRegister(reg, value);
    return;
  }
  memory_.Write(addr, value);
}

int Machine::PendingInterrupt() const {
  int best = -1;
  int best_priority = cpu_.psw.priority();
  for (int i = 0; i < static_cast<int>(devices_.size()); ++i) {
    if (devices_[i]->interrupt_pending() && devices_[i]->priority() > best_priority) {
      best = i;
      best_priority = devices_[i]->priority();
    }
  }
  return best;
}

void Machine::HardwareVector(PhysAddr vector) {
  // Save old context, load new PC/PSW from the vector, push old PSW/PC on
  // the (new) stack. This path is only used without a native client.
  const Word old_pc = cpu_.pc();
  const Word old_psw = cpu_.psw.bits();
  cpu_.set_pc(memory_.Read(vector));
  cpu_.psw.set_bits(memory_.Read(vector + 1));
  // Push through the MMU-less kernel view: vectored entry runs in kernel
  // mode and the standalone programs that use this path map kernel space
  // identity, so physical pushes are faithful.
  cpu_.set_sp(static_cast<Word>(cpu_.sp() - 1));
  memory_.Write(cpu_.sp(), old_psw);
  cpu_.set_sp(static_cast<Word>(cpu_.sp() - 1));
  memory_.Write(cpu_.sp(), old_pc);
}

void Machine::DispatchTrap(const TrapInfo& info) {
  ++traps_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kMachine, obs::Code::kMachineTrap, obs::kColourKernel, tick_,
              static_cast<Word>(info.kind),
              info.kind == TrapInfo::Kind::kMmuFault ? static_cast<Word>(info.fault_addr)
                                                     : static_cast<Word>(info.code));
  }
  if (client_ != nullptr) {
    client_->OnTrap(info);
    return;
  }
  switch (info.kind) {
    case TrapInfo::Kind::kIllegalInstruction:
      HardwareVector(kVectorIllegal);
      break;
    case TrapInfo::Kind::kMmuFault:
      HardwareVector(kVectorMmuFault);
      break;
    case TrapInfo::Kind::kTrapInstruction:
      HardwareVector(kVectorTrap);
      break;
  }
}

StepEvent Machine::Step() {
  StepEvent event = StepCpuPhase();
  StepDevicePhases();
  return event;
}

void Machine::StepDevicePhases() {
  for (const auto& dev : devices_) {
    dev->Step();
  }
  ++tick_;
}

void Machine::SkipDevicePhases(std::size_t n) {
  if (n == 0) {
    return;
  }
  for (const auto& dev : devices_) {
    dev->SkipSteps(n);
  }
  tick_ += n;
}

std::size_t Machine::QuietHorizon() const {
  std::size_t quiet = Device::kQuietForever;
  for (const auto& dev : devices_) {
    quiet = std::min(quiet, dev->QuietSteps());
  }
  return quiet;
}

bool Machine::AnyInterruptLine() const {
  for (const auto& dev : devices_) {
    if (dev->interrupt_pending()) {
      return true;
    }
  }
  return false;
}

StepEvent Machine::StepCpuPhase() {
  // Deferred client work takes precedence over everything else; it belongs
  // to the current context and must complete before the next instruction.
  if (client_ != nullptr && !halted_ && client_->OnBeforeExecute()) {
    StepEvent event;
    event.kind = StepEvent::Kind::kKernelWork;
    return event;
  }
  return DeliverOrExecute();
}

StepEvent Machine::DeliverOrExecute() {
  StepEvent event;

  // Interrupt delivery or instruction execution.
  const int irq = PendingInterrupt();
  if (irq >= 0) {
    waiting_ = false;
    devices_[irq]->ClearInterrupt();
    event.kind = StepEvent::Kind::kInterrupt;
    event.device = irq;
    ++interrupts_;
    if (obs::Enabled()) {
      const RegimeId owner = devices_[irq]->owner();
      obs::Emit(obs::Category::kMachine, obs::Code::kMachineIrq,
                owner == kNoRegime ? obs::kColourKernel : static_cast<int>(owner), tick_,
                static_cast<Word>(irq));
    }
    if (client_ != nullptr) {
      client_->OnInterrupt(irq);
    } else {
      HardwareVector(static_cast<PhysAddr>(devices_[irq]->vector()));
    }
  } else if (halted_ || waiting_) {
    event.kind = StepEvent::Kind::kIdle;
  } else {
    event = ApplyCpuEvent(RunBatch(1, /*refuse_io=*/false).event);
  }
  return event;
}

StepEvent Machine::ApplyCpuEvent(const CpuEvent& cpu_event) {
  StepEvent event;
  switch (cpu_event.kind) {
    case CpuEventKind::kOk:
      event.kind = StepEvent::Kind::kInstruction;
      break;
    case CpuEventKind::kHalt:
      halted_ = true;
      event.kind = StepEvent::Kind::kInstruction;
      if (client_ != nullptr) {
        client_->OnHalt();
      }
      break;
    case CpuEventKind::kWait:
      waiting_ = true;
      event.kind = StepEvent::Kind::kInstruction;
      break;
    case CpuEventKind::kIllegalInstruction:
      event.kind = StepEvent::Kind::kTrap;
      event.trap = TrapInfo{TrapInfo::Kind::kIllegalInstruction, 0, 0};
      DispatchTrap(event.trap);
      break;
    case CpuEventKind::kBusFault:
      event.kind = StepEvent::Kind::kTrap;
      event.trap = TrapInfo{TrapInfo::Kind::kMmuFault, 0, cpu_event.fault_addr};
      DispatchTrap(event.trap);
      break;
    case CpuEventKind::kTrap:
      event.kind = StepEvent::Kind::kTrap;
      event.trap = TrapInfo{TrapInfo::Kind::kTrapInstruction, cpu_event.trap_code, 0};
      DispatchTrap(event.trap);
      break;
  }
  return event;
}

void Machine::set_predecode_enabled(bool enabled) {
  predecode_enabled_ = enabled;
  if (!enabled) {
    // Superblocks anchor into icache entries, so they go first.
    InvalidateAllSuperblocks();
    if (obs::Enabled() && !icache_.empty()) {
      obs::Emit(obs::Category::kMachine, obs::Code::kPredecodeFlush, obs::kColourKernel, tick_,
                static_cast<Word>(icache_.size()));
    }
    icache_.clear();
  }
}

void Machine::set_superblock_enabled(bool enabled) {
  superblock_enabled_ = enabled;
  if (!enabled) {
    InvalidateAllSuperblocks();
  }
}

void Machine::InvalidateSuperblock(Superblock* sb) {
  PredecodedInsn* const entry = sb->entry;
  entry->sb = nullptr;
  entry->form = sb->orig_form;
  entry->handler = nullptr;
  entry->heat = 0;
  ++superblock_invalidations_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kMachine, obs::Code::kSuperblockInvalidate, obs::kColourKernel,
              tick_, sb->entry_pc);
  }
  const std::uint32_t slot = sb->slot;
  if (slot + 1 != superblocks_.size()) {
    superblocks_[slot] = std::move(superblocks_.back());
    superblocks_[slot]->slot = slot;
  }
  superblocks_.pop_back();
}

void Machine::InvalidateAllSuperblocks() {
  if (superblocks_.empty()) {
    return;
  }
  superblock_invalidations_ += superblocks_.size();
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kMachine, obs::Code::kSuperblockInvalidate, obs::kColourKernel,
              tick_, static_cast<Word>(superblocks_.size()));
  }
  for (const auto& sb : superblocks_) {
    sb->entry->sb = nullptr;
    sb->entry->form = sb->orig_form;
    sb->entry->handler = nullptr;
    sb->entry->heat = 0;
  }
  superblocks_.clear();
}

// Walks the predicted path from a hot taken-branch target and stitches a
// superblock. Purely static: reads the live mapping and memory through the
// same checks the per-step dispatch applies, so every instruction admitted
// here would also pass the per-step fast path at build time. Prediction:
// unconditional branches follow the branch, conditional branches follow the
// taken edge when it points backward (loop-closing) and fall through
// otherwise; the trace ends at the first generic-form, JSR, RTS or TRAP
// instruction, unmapped word, guard-budget overflow, or revisit of a
// stitched PC.
__attribute__((noinline)) void Machine::BuildSuperblockAt(Word entry_pc, CpuMode mode,
                                                          PredecodedInsn& entry) {
  auto sb = std::make_unique<Superblock>();
  sb->entry_pc = entry_pc;
  sb->mode = mode;

  auto add_version_guards = [&](PhysAddr first, PhysAddr last) {
    for (std::size_t index = PhysicalMemory::VersionIndex(first);
         index <= PhysicalMemory::VersionIndex(last); ++index) {
      bool known = false;
      for (const Superblock::VersionGuard& g : sb->version_guards) {
        if (g.index == index) {
          known = true;
          break;
        }
      }
      if (!known) {
        if (sb->version_guards.size() >= kSuperblockMaxVersionGuards) {
          return false;
        }
        sb->version_guards.push_back(
            {static_cast<std::uint32_t>(index), memory_.version_data()[index]});
      }
    }
    return true;
  };

  Word pc = entry_pc;
  while (sb->insns.size() < kSuperblockMaxInsns) {
    // Re-apply the per-step fast-path preconditions at `pc`.
    const std::uint32_t vp = static_cast<std::uint32_t>(pc) >> kPageBits;
    const PageRegister& pr = mmu_.page(mode, static_cast<int>(vp & 0x7));
    const std::uint32_t limit =
        pr.access == PageAccess::kNone ? 0 : (pr.length < kPageWords ? pr.length : kPageWords);
    const std::uint32_t offset = pc & (kPageWords - 1);
    if (offset >= limit) {
      break;
    }
    const PhysAddr phys = pr.base + offset;
    if (!memory_.InRange(phys)) {
      break;
    }
    std::optional<DecodedInsn> decoded = Decode(memory_.Read(phys));
    if (!decoded.has_value()) {
      break;
    }
    const std::uint32_t length = static_cast<std::uint32_t>(decoded->length);
    if (offset + length > limit || !memory_.InRange(phys + length - 1)) {
      break;
    }
    const std::uint8_t form = ClassifyForm(*decoded);
    if (form == kFormGeneric || form == kFormCall) {
      break;
    }

    // Record the mapping this instruction fetches through. One virtual page
    // resolves to one PageRegister for the whole build (nothing runs between
    // iterations), so a revisit can never conflict.
    bool guarded = false;
    for (const Superblock::PageGuard& g : sb->page_guards) {
      if (g.vpage == vp) {
        guarded = true;
        break;
      }
    }
    if (!guarded) {
      sb->page_guards.push_back({vp, pr.base, limit});
    }
    if (!add_version_guards(phys, phys + length - 1)) {
      break;
    }
    // A stitched instruction may never have run (a predicted fall-through),
    // so its words may not be marked yet; the version guards only see
    // stores to marked words.
    memory_.MarkCode(phys, length);

    SuperblockInsn si;
    si.insn = *decoded;
    for (std::uint32_t i = 1; i < length; ++i) {
      si.ext[i - 1] = memory_.Read(phys + static_cast<PhysAddr>(i));
    }
    si.pc = pc;
    si.form = form;
    si.may_write = interp::MayWriteMemory(*decoded);
    si.can_fault = interp::MayTouchMemory(*decoded);

    const bool is_branch = form >= kFormBr && form <= kFormBle;
    const Word fall = static_cast<Word>(pc + length);
    Word next;
    if (is_branch) {
      const Word taken = static_cast<Word>(fall + decoded->branch_offset);
      next = (decoded->opcode == Opcode::kBr || taken <= pc) ? taken : fall;
    } else {
      next = fall;
    }

    // Resolve the successor inside the trace so far (loop closure / rejoin).
    std::int32_t next_index = -1;
    for (std::size_t i = 0; i < sb->insns.size(); ++i) {
      if (sb->insns[i].pc == next) {
        next_index = static_cast<std::int32_t>(i);
        break;
      }
    }
    if (next == entry_pc) {
      next_index = 0;
    } else if (next == pc) {
      next_index = static_cast<std::int32_t>(sb->insns.size());  // self-loop
    }

    if (is_branch) {
      // A straight-line successor is the next slot; filled as -1 now and
      // fixed below if the build stops before appending it.
      si.next_index = next_index >= 0 ? next_index
                                      : static_cast<std::int32_t>(sb->insns.size()) + 1;
    }
    sb->insns.push_back(si);

    if (next_index >= 0) {
      break;  // trace closed into itself
    }
    pc = next;
  }

  // Branches whose predicted successor was never appended exit the trace.
  for (SuperblockInsn& si : sb->insns) {
    if (si.next_index >= static_cast<std::int32_t>(sb->insns.size())) {
      si.next_index = -1;
    }
  }

  if (sb->insns.size() < kSuperblockMinInsns) {
    return;  // heat wraps around and retries eventually
  }

  const Word trace_len = static_cast<Word>(sb->insns.size());
  // Sentinel trailer: running off the end of the trace lands here and its
  // handler (the kFormGeneric slot of the in-trace table) re-enters the
  // ordinary dispatch — so straight-line handlers advance with no
  // end-of-trace compare. Never executed, so only form matters.
  SuperblockInsn sentinel;
  sentinel.form = kFormGeneric;
  sb->insns.push_back(sentinel);

  sb->orig_form = entry.form;
  sb->entry = &entry;
  sb->slot = static_cast<std::uint32_t>(superblocks_.size());
  entry.sb = sb.get();
  entry.form = kFormSbEnter;
  entry.handler = nullptr;
  ++superblock_builds_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kMachine, obs::Code::kSuperblockBuild, obs::kColourKernel, tick_,
              entry_pc, trace_len);
  }
  superblocks_.push_back(std::move(sb));
}

__attribute__((noinline)) Machine::IcacheBlock& Machine::EnsureIcacheBlock(PhysAddr phys) {
  if (icache_.empty()) {
    icache_.resize((memory_.size() >> kIcacheBlockShift) + 1);
  }
  std::unique_ptr<IcacheBlock>& block = icache_[phys >> kIcacheBlockShift];
  if (block == nullptr) {
    block = std::make_unique<IcacheBlock>();
  }
  return *block;
}

// Cache miss (or stale entry): decode from memory and refill. Out of line so
// the threaded dispatch stays compact.
__attribute__((noinline)) CpuEvent Machine::ExecuteCpuMiss(MachineBus& bus,
                                                           PredecodedInsn& entry, PhysAddr phys,
                                                           std::uint32_t offset,
                                                           std::uint32_t limit) {
  ++predecode_misses_;
  // A refill rewrites the entry's decode and form, so a superblock anchored
  // here (its covered content just changed — that is why we missed) must go.
  if (entry.sb != nullptr) [[unlikely]] {
    InvalidateSuperblock(entry.sb);
  }
  // Refills are the observable face of predecode invalidation (a store into a
  // decoded word, a load or a restore bumps a page version; the next
  // execution lands here), besides each instruction's first execution.
  // Already out of line, so the disabled cost is one load + branch per miss.
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kMachine, obs::Code::kPredecodeFill, obs::kColourKernel, tick_,
              static_cast<Word>(phys >> kIcacheBlockShift));
  }
  std::optional<DecodedInsn> decoded = Decode(memory_.Read(phys));
  if (!decoded.has_value()) {
    entry.version = 0;  // don't cache invalid opcodes
    return interp::ExecuteOneT<MachineBus>(cpu_, bus);  // traps identically
  }
  const std::uint32_t length = static_cast<std::uint32_t>(decoded->length);
  if (offset + length > limit || !memory_.InRange(phys + length - 1)) {
    // Crosses the mapped page run (or into device space): the extension
    // fetches need per-word translation. Leave it to the generic path.
    entry.version = 0;
    return interp::ExecuteOneT<MachineBus>(cpu_, bus);
  }
  // Mark the words before the instruction runs: it may store into itself.
  memory_.MarkCode(phys, length);
  entry.insn = *decoded;
  for (int i = 1; i < decoded->length; ++i) {
    entry.ext[i - 1] = memory_.Read(phys + static_cast<PhysAddr>(i));
  }
  entry.form = ClassifyForm(*decoded);
  entry.handler = nullptr;  // re-resolved from `form` by the threaded loop
  entry.version = memory_.PageVersion(phys);
  entry.version_last = memory_.PageVersion(phys + length - 1);
  return interp::ExecutePredecodedT<MachineBus>(cpu_, bus, entry.insn, entry.ext.data());
}

// RunThreaded's kFormCall entries, on the committed CPU state (PC synced
// out before the call and read back after it). No scratch CpuState: each
// form makes at most one bus access, its stack push or pop, and commits SP
// and PC only after that access succeeds, so a faulting or refused one
// leaves no trace and Run replays it exactly. Out of line on purpose: the
// same code inlined into RunThreaded moved the register allocation of its
// superblock handlers, cost guard_ring 5-8% and cut snfe_kernelized's gain
// from about 1.35x to 1.2x (docs/PERFORMANCE.md §13).
__attribute__((noinline)) CpuEvent Machine::ExecuteCallForm(MachineBus& bus,
                                                            const PredecodedInsn& entry) {
  Word* const regs = cpu_.regs.data();
  const DecodedInsn& insn = entry.insn;
  const Word next = static_cast<Word>(regs[kPc] + insn.length);
  switch (insn.opcode) {
    case Opcode::kTrap:
      regs[kPc] = next;
      return {CpuEventKind::kTrap, insn.trap_code, 0};
    case Opcode::kRts: {
      const Word sp = regs[kSp];
      Word target = 0;
      if (!bus.Read(sp, AccessKind::kReadData, &target)) {
        return {CpuEventKind::kBusFault, 0, sp};
      }
      regs[kSp] = static_cast<Word>(sp + 1);
      regs[kPc] = target;
      return {};
    }
    default: {
      // JSR, never in register mode (ClassifyForm). The target comes from
      // the predecoded extension word; a PC base reads the PC past the
      // whole instruction (pc+1 deferred, pc+2 indexed), the value
      // Ctx::JumpTarget sees.
      const Word base = insn.dst.reg == kPc ? next : regs[insn.dst.reg];
      Word target = base;
      if (insn.dst.mode == AddrMode::kImmediate) {
        target = entry.ext[0];  // absolute
      } else if (insn.dst.mode == AddrMode::kIndexed) {
        target = static_cast<Word>(entry.ext[0] + base);
      }
      const Word sp = static_cast<Word>(regs[kSp] - 1);
      if (!bus.Write(sp, next)) {
        return {CpuEventKind::kBusFault, 0, sp};
      }
      regs[kSp] = sp;
      regs[kPc] = target;
      return {};
    }
  }
}

void Machine::StepDevicePhase(int slot) { devices_[slot]->Step(); }

std::optional<Word> Machine::PeekVirt(VirtAddr addr) const {
  auto tr = mmu_.Translate(cpu_.psw.mode(), addr, AccessKind::kReadInstruction);
  if (!tr.translation.has_value()) {
    return std::nullopt;
  }
  const PhysAddr phys = tr.translation->phys;
  if (phys >= config_.io_base || !memory_.InRange(phys)) {
    return std::nullopt;
  }
  return memory_.Read(phys);
}

// The direct-threaded engine: Run's batch body and, as a one-instruction
// batch, the per-tick step. Shape: a dispatch sequence (macro, replicated
// into the tail of every handler so each predecoded opcode gets its own
// indirect-branch site — the classic threaded-code cure for the single
// rotating dispatch jump that mispredicts once per step) validates the
// fast-path preconditions (the whole instruction in RAM inside one
// contiguously-mapped virtual page, and a predecoded entry whose page
// versions are current), then jumps through the per-entry `form` byte. PC
// and PSW live in locals whose address never escapes, so the step-to-step
// critical path never round-trips through memory; they are synced with
// cpu_ around every out-of-line slow path. The other registers stay in
// cpu_: a local copy of the file would be written back with one wide load
// right after the handlers' narrow register stores, a store-forwarding
// stall that a one-instruction batch pays per instruction. The batch ends
// at the budget, at the first instruction that raises an event (returned
// unapplied: the caller applies it at its exact tick) or before the first
// refused device access; so halted_ and waiting_ cannot change inside and
// are never polled.
Machine::BatchEnd Machine::RunThreaded(std::size_t max_steps, bool refuse_io) {
  SEP_DCHECK(refuse_io || max_steps == 1);
  MachineBus bus(*this, refuse_io);
  Word pc = cpu_.pc();
  Psw psw = cpu_.psw;
  Word* const regs = cpu_.regs.data();
  std::size_t steps = 0;
  std::uint64_t hits = 0;
  PredecodedInsn* entry = nullptr;
  PhysAddr phys = 0;
  std::uint32_t offset = 0;
  std::uint32_t limit = 0;
  CpuEvent event{};
  // Current icache block, cached across steps: blocks never move once
  // allocated (the vector holds owning pointers), so straight-line code
  // revalidates with a register compare instead of re-walking the vector.
  IcacheBlock* cur_block = nullptr;
  std::size_t cur_block_index = static_cast<std::size_t>(-1);
  // Current virtual code page, resolved through the MMU once and then
  // revalidated with a register compare. Sound because nothing inside a
  // batch can remap the MMU: no client callback runs in it (every trap,
  // halt or wait ends the batch before it is applied), no device register
  // is accessed in it (the bus refuses, or the batch is the one instruction
  // whose access it performs), page registers are not guest-addressable,
  // and direct handlers never flip the mode bit; every slow path that could
  // (RTI) goes through SEP_SYNC_IN, which drops the cached mapping.
  // Self-modifying code is still caught per step by the page-version
  // compare below — this caches the *mapping*, not the bytes.
  std::uint32_t cur_vpage = ~0u;
  PhysAddr cur_base = 0;
  std::uint32_t cur_limit = 0;
  const std::uint64_t* const page_versions = memory_.version_data();
  const PhysAddr mem_size = static_cast<PhysAddr>(memory_.size());
  // Superblock execution state: set by run_sb_enter, read only by the sb
  // handlers and their shared exit labels below. Every stitched instruction
  // is by construction a predecode hit, so in-trace handlers count only
  // `steps`; SEP_SB_FLUSH credits `hits` with the delta when the trace is
  // left. `sb_len` is the stitched length (sentinel excluded) used by the
  // loop-back budget check.
  Superblock* cur_sb = nullptr;
  SuperblockInsn* sb_base = nullptr;
  SuperblockInsn* sb_cur = nullptr;
  std::size_t sb_len = 0;
  std::size_t sb_steps_base = 0;
  std::uint64_t sb_exits = 0;

  // Order must match DirectForm.
  static const void* const kForms[] = {
      &&form_generic, &&form_nop, &&form_br,  &&form_beq, &&form_bne, &&form_bmi,
      &&form_bpl,     &&form_bcs, &&form_bcc, &&form_bvs, &&form_bvc, &&form_blt,
      &&form_bge,     &&form_bgt, &&form_ble, &&form_mov, &&form_add, &&form_sub,
      &&form_cmp,     &&form_bit, &&form_bic, &&form_bis, &&form_xor, &&form_clr,
      &&form_inc,     &&form_dec, &&form_neg, &&form_com, &&form_tst, &&form_asr,
      &&form_asl,     &&form_call, &&run_sb_enter,
  };

  // Superblock in-trace handlers, same DirectForm order, two tables: the
  // full-plumbing one for instructions that can touch data memory (fault
  // and/or store), and a lean one — no event reset, no event check, no
  // post-store recheck — for instructions that provably cannot
  // (interp::MayTouchMemory, chosen per instruction at build time).
  // kFormGeneric, kFormCall and kFormSbEnter are never stitched; their
  // slots re-dispatch defensively (the generic slot is also the sentinel
  // trailer's handler, i.e. the normal off-the-end exit).
  static const void* const kSbForms[] = {
      &&run_sb_off_end, &&sb_nop, &&sb_br,  &&sb_beq, &&sb_bne, &&sb_bmi,
      &&sb_bpl,         &&sb_bcs, &&sb_bcc, &&sb_bvs, &&sb_bvc, &&sb_blt,
      &&sb_bge,         &&sb_bgt, &&sb_ble, &&sb_mov, &&sb_add, &&sb_sub,
      &&sb_cmp,         &&sb_bit, &&sb_bic, &&sb_bis, &&sb_xor, &&sb_clr,
      &&sb_inc,         &&sb_dec, &&sb_neg, &&sb_com, &&sb_tst, &&sb_asr,
      &&sb_asl,         &&run_sb_off_end,   &&run_sb_off_end,
  };
  static const void* const kSbFormsNf[] = {
      &&run_sb_off_end, &&sb_nop_nf, &&sb_br,     &&sb_beq,    &&sb_bne,    &&sb_bmi,
      &&sb_bpl,         &&sb_bcs,    &&sb_bcc,    &&sb_bvs,    &&sb_bvc,    &&sb_blt,
      &&sb_bge,         &&sb_bgt,    &&sb_ble,    &&sb_mov_nf, &&sb_add_nf, &&sb_sub_nf,
      &&sb_cmp_nf,      &&sb_bit_nf, &&sb_bic_nf, &&sb_bis_nf, &&sb_xor_nf, &&sb_clr_nf,
      &&sb_inc_nf,      &&sb_dec_nf, &&sb_neg_nf, &&sb_com_nf, &&sb_tst_nf, &&sb_asr_nf,
      &&sb_asl_nf,      &&run_sb_off_end, &&run_sb_off_end,
  };

#define SEP_SYNC_OUT() (regs[kPc] = pc, cpu_.psw = psw)
#define SEP_SYNC_IN() (pc = regs[kPc], psw = cpu_.psw, cur_vpage = ~0u)

  // The per-step validation of the fast-path preconditions, ending in the
  // threaded jump.
  // `steps`/`hits` are committed here so handlers and slow paths reached
  // from the jump must not count them again. HOOK runs after the entry is
  // validated and before the jump; the taken-branch dispatch uses it for
  // hot-edge accounting, every other site passes a no-op.
#define SEP_DISPATCH_CORE(HOOK)                                                        \
  do {                                                                                 \
    if (steps >= max_steps) goto run_done;                                             \
    const std::uint32_t vp = static_cast<std::uint32_t>(pc) >> kPageBits;              \
    if (vp != cur_vpage) [[unlikely]] {                                                \
      const PageRegister& pr = mmu_.page(psw.mode(), static_cast<int>(vp & 0x7));      \
      cur_limit = pr.access == PageAccess::kNone                                       \
                      ? 0                                                              \
                      : (pr.length < kPageWords ? pr.length : kPageWords);             \
      cur_base = pr.base;                                                              \
      cur_vpage = vp;                                                                  \
    }                                                                                  \
    offset = pc & (kPageWords - 1);                                                    \
    limit = cur_limit;                                                                 \
    if (offset >= limit) [[unlikely]] goto run_generic;                                \
    phys = cur_base + offset;                                                          \
    if (phys >= mem_size) [[unlikely]] goto run_generic;                               \
    const std::size_t bi = phys >> kIcacheBlockShift;                                  \
    if (bi != cur_block_index) [[unlikely]] {                                          \
      cur_block = bi < icache_.size() ? icache_[bi].get() : nullptr;                   \
      if (cur_block == nullptr) cur_block = &EnsureIcacheBlock(phys);                  \
      cur_block_index = bi;                                                            \
    }                                                                                  \
    entry = &cur_block->entries[phys & (kIcacheBlockWords - 1)];                       \
    bool valid = entry->version == page_versions[phys >> PhysicalMemory::kVersionPageShift]; \
    if (valid && entry->insn.length > 1)                                               \
      valid = entry->version_last ==                                                   \
              page_versions[(phys + static_cast<PhysAddr>(entry->insn.length) - 1) >>  \
                            PhysicalMemory::kVersionPageShift];                        \
    if (!valid) [[unlikely]] goto run_miss;                                            \
    if (offset + static_cast<std::uint32_t>(entry->insn.length) > limit) [[unlikely]]  \
      goto run_generic;                                                                \
    ++hits;                                                                            \
    ++steps;                                                                           \
    HOOK;                                                                              \
    if (entry->handler == nullptr) [[unlikely]] entry->handler = kForms[entry->form];  \
    goto* entry->handler;                                                              \
  } while (0)

#define SEP_DISPATCH() SEP_DISPATCH_CORE((void)0)

  // Hot-edge accounting on a validated taken-branch target: when the target
  // entry's heat crosses the threshold, a superblock is stitched and anchored
  // on it (form becomes kFormSbEnter), so the jump below enters it at once.
#define SEP_EDGE_HOOK()                                                                \
  if (superblock_enabled_ && entry->sb == nullptr) {                                   \
    if (++entry->heat == kSuperblockHeatThreshold) [[unlikely]] {                      \
      BuildSuperblockAt(pc, psw.mode(), *entry);                                       \
    }                                                                                  \
  }

  // Taken branches dispatch through their own expansion (own indirect-branch
  // site, like every other handler tail) with the hot-edge hook armed.
#define SEP_DISPATCH_EDGE() SEP_DISPATCH_CORE(SEP_EDGE_HOOK())

// One direct handler per predecoded opcode. The DirectStepT bail (PC
// operand) cannot trigger here — ClassifyForm maps those to kFormGeneric —
// but the fallback to the generic scratch path is kept, so a handler never
// executes an instruction DirectStepT does not model.
#define SEP_HANDLER(label, OP)                                                        \
  label:                                                                              \
  event = {};                                                                         \
  if (interp::DirectStepT<MachineBus, Opcode::OP>(regs, psw, pc, bus, entry->insn,    \
                                                  entry->ext.data(), &event))         \
      [[likely]] {                                                                    \
    if (event.kind == CpuEventKind::kOk) [[likely]] SEP_DISPATCH();                   \
    goto run_event;                                                                   \
  }                                                                                   \
  goto run_predecoded_slow;

// Branch handlers inline DirectStepT's branch path (compute the successor,
// always kOk) so the taken edge is visible: it dispatches with the hot-edge
// hook, the fall-through edge dispatches plainly.
#define SEP_BRANCH_HANDLER(label, OP)                                                 \
  label: {                                                                            \
    Word next = static_cast<Word>(pc + entry->insn.length);                           \
    if (interp::BranchTaken(Opcode::OP, psw)) {                                       \
      pc = static_cast<Word>(next + entry->insn.branch_offset);                       \
      SEP_DISPATCH_EDGE();                                                            \
    }                                                                                 \
    pc = next;                                                                        \
    SEP_DISPATCH();                                                                   \
  }

  SEP_DISPATCH();

  SEP_HANDLER(form_nop, kNop)
  SEP_BRANCH_HANDLER(form_br, kBr)
  SEP_BRANCH_HANDLER(form_beq, kBeq)
  SEP_BRANCH_HANDLER(form_bne, kBne)
  SEP_BRANCH_HANDLER(form_bmi, kBmi)
  SEP_BRANCH_HANDLER(form_bpl, kBpl)
  SEP_BRANCH_HANDLER(form_bcs, kBcs)
  SEP_BRANCH_HANDLER(form_bcc, kBcc)
  SEP_BRANCH_HANDLER(form_bvs, kBvs)
  SEP_BRANCH_HANDLER(form_bvc, kBvc)
  SEP_BRANCH_HANDLER(form_blt, kBlt)
  SEP_BRANCH_HANDLER(form_bge, kBge)
  SEP_BRANCH_HANDLER(form_bgt, kBgt)
  SEP_BRANCH_HANDLER(form_ble, kBle)
  SEP_HANDLER(form_mov, kMov)
  SEP_HANDLER(form_add, kAdd)
  SEP_HANDLER(form_sub, kSub)
  SEP_HANDLER(form_cmp, kCmp)
  SEP_HANDLER(form_bit, kBit)
  SEP_HANDLER(form_bic, kBic)
  SEP_HANDLER(form_bis, kBis)
  SEP_HANDLER(form_xor, kXor)
  SEP_HANDLER(form_clr, kClr)
  SEP_HANDLER(form_inc, kInc)
  SEP_HANDLER(form_dec, kDec)
  SEP_HANDLER(form_neg, kNeg)
  SEP_HANDLER(form_com, kCom)
  SEP_HANDLER(form_tst, kTst)
  SEP_HANDLER(form_asr, kAsr)
  SEP_HANDLER(form_asl, kAsl)

#undef SEP_HANDLER
#undef SEP_BRANCH_HANDLER

  // ------------------------------------------------------------------
  // Superblock execution. run_sb_enter is reached through the ordinary
  // dispatch (the anchor entry's form is kFormSbEnter), so the entry
  // instruction itself is already validated and counted. The guards hoist
  // what the per-step dispatch would otherwise re-derive for every stitched
  // instruction: the PSW mode and page mappings cannot change inside the
  // trace (no client callback and no device-register access runs inside a
  // batch, page registers are not guest-addressable, and only generic-form
  // instructions — never stitched — can flip the mode), and the version
  // guards pin every covered 64-word page, rechecked
  // after each instruction that can store (sb_cur->may_write) so
  // self-modifying code stops the trace before the next stale instruction
  // executes. Loop-closing traces (next_index >= 0) therefore iterate
  // entirely inside the trace with no re-entry guard at all.
  //
  // The step budget is hoisted too: entry admits the trace only when a full
  // straight-line pass fits (steps + sb_len <= max_steps, after the anchor
  // undo), and every in-trace control transfer re-proves the next pass fits
  // before taking it — so straight-line handlers run with no budget check.
  // HALT and WAIT are generic forms and a trace ends before JSR, RTS and
  // TRAP, so only a faulting or refused data access leaves a trace early.

  // In-trace handler for non-branch direct forms that can touch data
  // memory: execute with event plumbing, recheck covered pages after a
  // possible store, advance (running off the end lands on the sentinel
  // trailer, whose handler is the off-end exit — no end compare). The
  // DirectStepT bail (PC operand) is impossible by stitching construction;
  // the defensive exit re-dispatches the unexecuted pc.
#define SEP_SB_HANDLER(label, OP)                                                     \
  label:                                                                              \
  event = {};                                                                         \
  if (interp::DirectStepT<MachineBus, Opcode::OP>(regs, psw, pc, bus, sb_cur->insn,   \
                                                  sb_cur->ext.data(), &event))        \
      [[likely]] {                                                                    \
    ++steps;                                                                          \
    if (event.kind != CpuEventKind::kOk) [[unlikely]] goto run_event;                 \
    if (sb_cur->may_write) goto run_sb_write_check;                                   \
    ++sb_cur;                                                                         \
    goto* sb_cur->handler;                                                            \
  }                                                                                   \
  goto run_sb_off_end;

  // Lean variant for instructions that provably cannot fault or store
  // (register/immediate operands only — interp::MayTouchMemory false): no
  // event plumbing, no recheck. This is the common case in hot loops.
#define SEP_SB_HANDLER_NF(label, OP)                                                  \
  label:                                                                              \
  if (interp::DirectStepT<MachineBus, Opcode::OP>(regs, psw, pc, bus, sb_cur->insn,   \
                                                  sb_cur->ext.data(), &event))        \
      [[likely]] {                                                                    \
    ++steps;                                                                          \
    ++sb_cur;                                                                         \
    goto* sb_cur->handler;                                                            \
  }                                                                                   \
  goto run_sb_off_end;

  // In-trace branch: compute the successor exactly as DirectStepT does
  // (always kOk, no bus traffic), then either stay inside the trace along
  // the predicted edge — re-proving the budget admits another pass — or
  // side-exit to the ordinary dispatch.
#define SEP_SB_BRANCH_HANDLER(label, OP)                                              \
  label: {                                                                            \
    Word next = static_cast<Word>(pc + sb_cur->insn.length);                          \
    if (interp::BranchTaken(Opcode::OP, psw)) {                                       \
      next = static_cast<Word>(next + sb_cur->insn.branch_offset);                    \
    }                                                                                 \
    pc = next;                                                                        \
  }                                                                                   \
  ++steps;                                                                            \
  {                                                                                   \
    const std::int32_t ni = sb_cur->next_index;                                       \
    if (ni < 0) [[unlikely]] goto run_sb_off_end;                                     \
    SuperblockInsn* const nxt = sb_base + ni;                                         \
    if (pc != nxt->pc) [[unlikely]] goto run_sb_side_exit;                            \
    if (steps + sb_len > max_steps) [[unlikely]] goto run_sb_off_end;                 \
    sb_cur = nxt;                                                                     \
    goto* sb_cur->handler;                                                            \
  }

  SEP_SB_HANDLER(sb_nop, kNop)
  SEP_SB_BRANCH_HANDLER(sb_br, kBr)
  SEP_SB_BRANCH_HANDLER(sb_beq, kBeq)
  SEP_SB_BRANCH_HANDLER(sb_bne, kBne)
  SEP_SB_BRANCH_HANDLER(sb_bmi, kBmi)
  SEP_SB_BRANCH_HANDLER(sb_bpl, kBpl)
  SEP_SB_BRANCH_HANDLER(sb_bcs, kBcs)
  SEP_SB_BRANCH_HANDLER(sb_bcc, kBcc)
  SEP_SB_BRANCH_HANDLER(sb_bvs, kBvs)
  SEP_SB_BRANCH_HANDLER(sb_bvc, kBvc)
  SEP_SB_BRANCH_HANDLER(sb_blt, kBlt)
  SEP_SB_BRANCH_HANDLER(sb_bge, kBge)
  SEP_SB_BRANCH_HANDLER(sb_bgt, kBgt)
  SEP_SB_BRANCH_HANDLER(sb_ble, kBle)
  SEP_SB_HANDLER(sb_mov, kMov)
  SEP_SB_HANDLER(sb_add, kAdd)
  SEP_SB_HANDLER(sb_sub, kSub)
  SEP_SB_HANDLER(sb_cmp, kCmp)
  SEP_SB_HANDLER(sb_bit, kBit)
  SEP_SB_HANDLER(sb_bic, kBic)
  SEP_SB_HANDLER(sb_bis, kBis)
  SEP_SB_HANDLER(sb_xor, kXor)
  SEP_SB_HANDLER(sb_clr, kClr)
  SEP_SB_HANDLER(sb_inc, kInc)
  SEP_SB_HANDLER(sb_dec, kDec)
  SEP_SB_HANDLER(sb_neg, kNeg)
  SEP_SB_HANDLER(sb_com, kCom)
  SEP_SB_HANDLER(sb_tst, kTst)
  SEP_SB_HANDLER(sb_asr, kAsr)
  SEP_SB_HANDLER(sb_asl, kAsl)

  SEP_SB_HANDLER_NF(sb_nop_nf, kNop)
  SEP_SB_HANDLER_NF(sb_mov_nf, kMov)
  SEP_SB_HANDLER_NF(sb_add_nf, kAdd)
  SEP_SB_HANDLER_NF(sb_sub_nf, kSub)
  SEP_SB_HANDLER_NF(sb_cmp_nf, kCmp)
  SEP_SB_HANDLER_NF(sb_bit_nf, kBit)
  SEP_SB_HANDLER_NF(sb_bic_nf, kBic)
  SEP_SB_HANDLER_NF(sb_bis_nf, kBis)
  SEP_SB_HANDLER_NF(sb_xor_nf, kXor)
  SEP_SB_HANDLER_NF(sb_clr_nf, kClr)
  SEP_SB_HANDLER_NF(sb_inc_nf, kInc)
  SEP_SB_HANDLER_NF(sb_dec_nf, kDec)
  SEP_SB_HANDLER_NF(sb_neg_nf, kNeg)
  SEP_SB_HANDLER_NF(sb_com_nf, kCom)
  SEP_SB_HANDLER_NF(sb_tst_nf, kTst)
  SEP_SB_HANDLER_NF(sb_asr_nf, kAsr)
  SEP_SB_HANDLER_NF(sb_asl_nf, kAsl)

#undef SEP_SB_HANDLER
#undef SEP_SB_HANDLER_NF
#undef SEP_SB_BRANCH_HANDLER

  // Credits `hits` with every instruction retired since trace entry and
  // leaves superblock mode. In-trace handlers bump only `steps`, and every
  // stitched instruction is a predecode hit by construction, so the delta
  // is exact.
#define SEP_SB_FLUSH() (hits += steps - sb_steps_base, cur_sb = nullptr)

run_sb_enter: {
  Superblock* const sb = entry->sb;
  if (pc != sb->entry_pc || psw.mode() != sb->mode) [[unlikely]] {
    // A different virtual window (or mode) onto the anchor's physical word:
    // the entry decode is valid for it — dispatch just checked — so execute
    // it through its original handler; the superblock stays installed.
    goto* kForms[sb->orig_form];
  }
  // Budget fit: the dispatch counted the anchor (steps includes it); a full
  // straight-line pass of the trace executes sb_len instructions in its
  // place. If that cannot fit, run this step the ordinary way — the
  // remaining budget is finished per-step with exact accounting.
  const std::size_t len = sb->insns.size() - 1;  // sentinel excluded
  if (steps + len > max_steps + 1) [[unlikely]] {
    goto* kForms[sb->orig_form];
  }
  for (const Superblock::PageGuard& g : sb->page_guards) {
    const PageRegister& pr = mmu_.page(sb->mode, static_cast<int>(g.vpage & 0x7));
    const std::uint32_t lim = pr.access == PageAccess::kNone
                                  ? 0
                                  : (pr.length < kPageWords ? pr.length : kPageWords);
    if (pr.base != g.base || lim != g.limit) [[unlikely]] goto run_sb_stale;
  }
  for (const Superblock::VersionGuard& g : sb->version_guards) {
    if (page_versions[g.index] != g.version) [[unlikely]] goto run_sb_stale;
  }
  if (sb->insns[0].handler == nullptr) [[unlikely]] {
    for (SuperblockInsn& si : sb->insns) {
      si.handler = si.can_fault ? kSbForms[si.form] : kSbFormsNf[si.form];
    }
  }
  // Dispatch counted the anchor instruction before jumping here; the sb
  // handlers re-count every stitched instruction (anchor included), so
  // undo it and mark the baseline for SEP_SB_FLUSH.
  --hits;
  --steps;
  cur_sb = sb;
  sb_len = len;
  sb_steps_base = steps;
  sb_base = sb->insns.data();
  sb_cur = sb_base;
  goto* sb_cur->handler;
}

run_sb_stale:
  // An entry guard failed: a covered page was remapped or rewritten. Tear
  // the superblock down and run the anchor instruction the ordinary way
  // (its own decode was validated by the dispatch that got us here).
  InvalidateSuperblock(entry->sb);
  if (entry->handler == nullptr) entry->handler = kForms[entry->form];
  goto* entry->handler;

run_sb_write_check:
  // A stitched store retired: if it hit a covered page, every later trace
  // instruction may be stale — stop before the next one executes. All
  // previously executed instructions used pre-store content, exactly like
  // the per-step path (whose version compare also runs at the next fetch).
  for (const Superblock::VersionGuard& g : cur_sb->version_guards) {
    if (page_versions[g.index] != g.version) [[unlikely]] {
      InvalidateSuperblock(cur_sb);
      SEP_SB_FLUSH();
      SEP_DISPATCH();
    }
  }
  ++sb_cur;
  goto* sb_cur->handler;

run_sb_off_end:
  // Trace exhausted, budget boundary, or a defensive bail: back to the
  // per-step dispatch.
  SEP_SB_FLUSH();
  SEP_DISPATCH();

run_sb_side_exit:
  // A stitched branch went against its predicted edge.
  ++sb_exits;
  SEP_SB_FLUSH();
  SEP_DISPATCH();

form_call:
  // JSR, RTS and TRAP: direct, but out of line (ExecuteCallForm).
  SEP_SYNC_OUT();
  event = ExecuteCallForm(bus, *entry);
  pc = regs[kPc];
  if (event.kind != CpuEventKind::kOk) [[unlikely]] goto run_event;
  SEP_DISPATCH();

form_generic:
  // Cached but with no direct handler: run it through the scratch path.
run_predecoded_slow:
  ++generic_steps_;
  SEP_SYNC_OUT();
  event = interp::ExecutePredecodedT<MachineBus>(cpu_, bus, entry->insn, entry->ext.data());
  SEP_SYNC_IN();
  if (event.kind != CpuEventKind::kOk) [[unlikely]] goto run_event;
  SEP_DISPATCH();

run_generic:
  // Fast-path preconditions failed (cache off never reaches here; unmapped
  // PC, device space, page-run crossing): full fetch-decode-execute, which
  // reproduces the exact fault the real fetch would take.
  SEP_SYNC_OUT();
  event = interp::ExecuteOneT<MachineBus>(cpu_, bus);
  SEP_SYNC_IN();
  ++steps;
  if (event.kind != CpuEventKind::kOk) [[unlikely]] goto run_event;
  SEP_DISPATCH();

run_miss:
  SEP_SYNC_OUT();
  event = ExecuteCpuMiss(bus, *entry, phys, offset, limit);
  SEP_SYNC_IN();
  ++steps;
  if (event.kind != CpuEventKind::kOk) [[unlikely]] goto run_event;
  SEP_DISPATCH();

run_event:
  // The step that produced `event` is already counted — unless the bus
  // refused it, in which case it retired nothing and is uncounted so the
  // caller replays it. A faulting stitched instruction arrives here still
  // in superblock mode; settle the hit accounting before leaving.
  if (bus.refused()) [[unlikely]] {
    --steps;
    event = {};
  }
  if (cur_sb != nullptr) [[unlikely]] SEP_SB_FLUSH();
  goto run_exit;

run_done:
  event = {};
run_exit:
  SEP_SYNC_OUT();
  predecode_hits_ += hits;
  superblock_side_exits_ += sb_exits;
  return {steps, event, bus.refused()};

#undef SEP_SB_FLUSH
#undef SEP_DISPATCH
#undef SEP_DISPATCH_EDGE
#undef SEP_EDGE_HOOK
#undef SEP_DISPATCH_CORE
#undef SEP_SYNC_OUT
#undef SEP_SYNC_IN
}

// The generic tier: full fetch-decode-execute per instruction, no cache.
// Ends like RunThreaded: at the budget, at the first event (unapplied) or
// before a refused device access.
Machine::BatchEnd Machine::RunStepped(std::size_t max_steps, bool refuse_io) {
  SEP_DCHECK(refuse_io || max_steps == 1);
  MachineBus bus(*this, refuse_io);
  BatchEnd end;
  while (end.steps < max_steps) {
    const CpuEvent event = interp::ExecuteOneT<MachineBus>(cpu_, bus);
    if (event.kind != CpuEventKind::kOk) [[unlikely]] {
      end.refused = bus.refused();
      if (!end.refused) {
        end.event = event;
        ++end.steps;
      }
      break;
    }
    ++end.steps;
  }
  return end;
}

std::size_t Machine::Run(std::size_t max_steps) {
  std::size_t steps = 0;
  // Deferred client work can only appear inside a client callback (the
  // MachineClient contract), so it is looked for at entry and after every
  // applied event, which covers every callback: each per-tick step and
  // each trap, halt or wait that ends a batch.
  bool consult = client_ != nullptr;
  bool replay = false;  // the last batch refused a device-register access
  while (steps < max_steps && !halted_) {
    if (consult) {
      consult = false;
      if (client_->OnBeforeExecute()) {
        consult = true;
        StepDevicePhases();
        ++steps;
        continue;
      }
    }
    if (replay || AnyInterruptLine()) {
      // Per-tick exactly as Step(): interrupt delivery (even a masked line
      // can be unmasked by the next instruction) or the refused instruction,
      // its device access performed at its own tick.
      replay = false;
      DeliverOrExecute();
      consult = client_ != nullptr;
      StepDevicePhases();
      ++steps;
      continue;
    }
    // CPU phases no interrupt can reach: the first sees no raised line and
    // each later one follows a quiet device phase.
    const std::size_t left = max_steps - steps;
    const std::size_t quiet = QuietHorizon();
    const std::size_t span = quiet >= left ? left : quiet + 1;
    if (waiting_) {
      // Idle ticks up to the next device event or the budget.
      SkipDevicePhases(span - 1);
      StepDevicePhases();
      steps += span;
      continue;
    }
    const BatchEnd end = RunBatch(span, /*refuse_io=*/true);
    replay = end.refused;
    if (end.steps == 0) {
      continue;  // refused at the first instruction
    }
    // Catch the devices up to the last retired instruction's own tick, apply
    // its event there (traps reach the client with tick() exact; a halt
    // ends the loop), then run that step's device phase.
    SkipDevicePhases(end.steps - 1);
    if (end.event.kind != CpuEventKind::kOk) {
      ApplyCpuEvent(end.event);
      consult = client_ != nullptr;
    }
    StepDevicePhases();
    steps += end.steps;
  }
  return steps;
}

std::uint64_t Machine::StateHash() const {
  std::vector<Word> state;
  SnapshotFullInto(state);
  return HashWords(state.data(), state.size());
}

std::vector<Word> Machine::SnapshotFull() const {
  std::vector<Word> out;
  SnapshotFullInto(out);
  return out;
}

void Machine::SnapshotFullInto(std::vector<Word>& out) const {
  out.reserve(out.size() + memory_.size() + 64);
  memory_.AppendTo(out);
  for (int mode = 0; mode < 2; ++mode) {
    for (int page = 0; page < kPagesPerMode; ++page) {
      const PageRegister& pr = mmu_.page(static_cast<CpuMode>(mode), page);
      out.push_back(static_cast<Word>(pr.base & 0xFFFF));
      out.push_back(static_cast<Word>(pr.base >> 16));
      out.push_back(static_cast<Word>(pr.length & 0xFFFF));
      out.push_back(static_cast<Word>(pr.length >> 16));
      out.push_back(static_cast<Word>(pr.access));
    }
  }
  for (Word r : cpu_.regs) {
    out.push_back(r);
  }
  out.push_back(cpu_.psw.bits());
  for (const auto& dev : devices_) {
    std::vector<Word> ds = dev->SnapshotState();
    out.push_back(static_cast<Word>(ds.size()));
    out.insert(out.end(), ds.begin(), ds.end());
  }
  out.push_back(static_cast<Word>(halted_));
  out.push_back(static_cast<Word>(waiting_));
}

bool Machine::RestoreFull(std::span<const Word> snapshot) {
  const std::size_t fixed_words =
      memory_.size() + 2 * static_cast<std::size_t>(kPagesPerMode) * 5 + 8 + 1 + 2;
  if (snapshot.size() < fixed_words + devices_.size()) {
    return false;
  }
  memory_.RestoreWords(snapshot.subspan(0, memory_.size()));
  std::size_t pos = memory_.size();
  for (int mode = 0; mode < 2; ++mode) {
    for (int page = 0; page < kPagesPerMode; ++page) {
      PageRegister pr;
      pr.base = static_cast<PhysAddr>(snapshot[pos]) |
                (static_cast<PhysAddr>(snapshot[pos + 1]) << 16);
      pr.length = static_cast<std::uint32_t>(snapshot[pos + 2]) |
                  (static_cast<std::uint32_t>(snapshot[pos + 3]) << 16);
      pr.access = static_cast<PageAccess>(snapshot[pos + 4]);
      mmu_.SetPage(static_cast<CpuMode>(mode), page, pr);
      pos += 5;
    }
  }
  for (Word& r : cpu_.regs) {
    r = snapshot[pos++];
  }
  cpu_.psw.set_bits(snapshot[pos++]);
  for (const auto& dev : devices_) {
    if (pos >= snapshot.size()) {
      return false;
    }
    const std::size_t payload = snapshot[pos++];
    if (snapshot.size() - pos < payload + 2 ||
        !dev->RestoreState(snapshot.subspan(pos, payload))) {
      return false;
    }
    pos += payload;
  }
  halted_ = snapshot[pos++] != 0;
  waiting_ = snapshot[pos++] != 0;
  return pos == snapshot.size();
}

}  // namespace sep
