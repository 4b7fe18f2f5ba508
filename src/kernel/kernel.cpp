#include "src/kernel/kernel.h"

#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace sep {

SeparationKernel::SeparationKernel(Machine& machine, KernelConfig config)
    : machine_(machine), config_(std::move(config)) {}

Result<> SeparationKernel::Boot() {
  if (Result<> r = ValidateConfig(config_, machine_.memory().size(), machine_.device_count());
      !r.ok()) {
    return r;
  }

  // Zero the kernel partition: save areas, channel rings, counters.
  machine_.memory().Fill(config_.kernel_base, config_.kernel_words, 0);

  // Permanently allocate devices to their regimes.
  for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
    for (int slot : config_.regimes[r].device_slots) {
      machine_.device(slot).set_owner(static_cast<RegimeId>(r));
    }
  }

  // Initialize every regime's save area: PC at entry, stack at partition
  // top, user mode, priority 0, no pending interrupts.
  for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
    const RegimeConfig& regime = config_.regimes[r];
    for (std::uint32_t i = 0; i < 8; ++i) {
      SaveWrite(static_cast<int>(r), kSaveRegs + i, 0);
    }
    SaveWrite(static_cast<int>(r), kSaveRegs + kSp, static_cast<Word>(regime.mem_words));
    SaveWrite(static_cast<int>(r), kSaveRegs + kPc, regime.entry);
    Psw psw;
    psw.set_mode(CpuMode::kUser);
    SaveWrite(static_cast<int>(r), kSavePsw, psw.bits());
  }

  // Channel ring headers are already zero (head = 0, count = 0), as are the
  // shared-ring control words. Zero the shared-ring data windows too: they
  // live outside the kernel partition.
  for (const SharedRingConfig& ring : config_.shared_rings) {
    machine_.memory().Fill(ring.data_base, ring.capacity, 0);
  }

  machine_.mmu().DisableAll(CpuMode::kKernel);
  machine_.set_client(this);
  booted_ = true;
  KWrite(kOffCurrentRegime, kIdleRegime);
  DispatchNext(0);
  return Ok();
}

Result<> SeparationKernel::LoadRegimeImage(int regime, Word base,
                                           const std::vector<Word>& words) {
  if (regime < 0 || regime >= static_cast<int>(config_.regimes.size())) {
    return Err("no such regime");
  }
  const RegimeConfig& rc = config_.regimes[static_cast<std::size_t>(regime)];
  if (static_cast<std::uint32_t>(base) + words.size() > rc.mem_words) {
    return Err("image does not fit in partition of " + rc.name);
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    machine_.PhysWrite(rc.mem_base + base + static_cast<PhysAddr>(i), words[i]);
  }
  return Ok();
}

bool SeparationKernel::AllRegimesHalted() const {
  for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
    if (!RegimeHalted(static_cast<int>(r))) {
      return false;
    }
  }
  return true;
}

Word SeparationKernel::ChannelCount(int channel, int end) const {
  return KRead(ChannelRingOffset(config_, channel, end) + 1);
}

Word SeparationKernel::SharedRingOccupancy(int ring) const {
  const std::uint32_t ctl = SharedRingCtlOffset(config_, ring);
  return static_cast<Word>(KRead(ctl + kSharedRingTail) - KRead(ctl + kSharedRingHead));
}

Word SeparationKernel::SharedRingWatermark(int ring) const {
  return KRead(SharedRingCtlOffset(config_, ring) + kSharedRingWatermark);
}

int SeparationKernel::DoorbellLine(int regime, int ring) const {
  int ordinal = 0;
  for (std::size_t i = 0; i < config_.shared_rings.size(); ++i) {
    if (config_.shared_rings[i].consumer != regime) {
      continue;
    }
    if (static_cast<int>(i) == ring) {
      return static_cast<int>(
                 config_.regimes[static_cast<std::size_t>(regime)].device_slots.size()) +
             ordinal;
    }
    ++ordinal;
  }
  return -1;
}

int SeparationKernel::DoorbellLineCount(int regime) const {
  int count = 0;
  for (const SharedRingConfig& ring : config_.shared_rings) {
    count += ring.consumer == regime ? 1 : 0;
  }
  return count;
}

int SeparationKernel::DeviceOwner(int slot) const {
  for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
    for (int s : config_.regimes[r].device_slots) {
      if (s == slot) {
        return static_cast<int>(r);
      }
    }
  }
  return -1;
}

int SeparationKernel::LocalDeviceIndex(int regime, int slot) const {
  const auto& slots = config_.regimes[static_cast<std::size_t>(regime)].device_slots;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == slot) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool SeparationKernel::RegimeVirtToPhys(int regime, VirtAddr vaddr, PhysAddr* out) const {
  const RegimeConfig& rc = config_.regimes[static_cast<std::size_t>(regime)];
  if (vaddr >= rc.mem_words) {
    return false;  // only page 0 (the partition) backs regime stacks
  }
  *out = rc.mem_base + vaddr;
  return true;
}

// --- context switching -------------------------------------------------------

void SeparationKernel::SaveCurrentContext() {
  const Word cur = CurrentRegime();
  if (cur == kIdleRegime) {
    return;
  }
  if (config_.faults.skip_register_save) {
    return;  // injected defect: outgoing context is lost
  }
  const int r = cur;
  for (std::uint32_t i = 0; i < 8; ++i) {
    SaveWrite(r, kSaveRegs + i, machine_.cpu().regs[i]);
  }
  SaveWrite(r, kSavePsw, machine_.cpu().psw.bits());
}

void SeparationKernel::ProgramMmuFor(int regime) {
  // Colour kColourKernel: reprogramming the map is kernel bookkeeping in
  // nobody's abstract view (the regime never observes its own page table).
  ++mmu_remaps_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kMmuRemap, obs::kColourKernel,
              machine_.tick(), static_cast<Word>(regime));
  }
  const RegimeConfig& rc = config_.regimes[static_cast<std::size_t>(regime)];
  Mmu& mmu = machine_.mmu();
  mmu.DisableAll(CpuMode::kUser);
  mmu.SetPage(CpuMode::kUser, 0, {rc.mem_base, rc.mem_words, PageAccess::kReadWrite});
  if (!rc.device_slots.empty()) {
    const PhysAddr base = machine_.DeviceRegBase(rc.device_slots.front());
    const std::uint32_t span =
        static_cast<std::uint32_t>(rc.device_slots.size()) * kDeviceRegSpan;
    mmu.SetPage(CpuMode::kUser, 7, {base, span, PageAccess::kReadWrite});
  }
  // Shared-ring data windows: the regime's j-th ring (declaration order,
  // either end) on page kSharedRingPageBase + j — read-write for the
  // producer, read-only for the consumer. Head/tail never appear here; only
  // the kernel can move them.
  int window = 0;
  for (const SharedRingConfig& ring : config_.shared_rings) {
    const bool producer = ring.producer == regime;
    if (!producer && ring.consumer != regime) {
      continue;
    }
    mmu.SetPage(CpuMode::kUser, kSharedRingPageBase + window,
                {ring.data_base, ring.capacity,
                 producer ? PageAccess::kReadWrite : PageAccess::kReadOnly});
    ++window;
  }
  if (config_.faults.shared_mmu_window && regime != 0) {
    // Injected defect: a read window onto regime 0's partition.
    const RegimeConfig& victim = config_.regimes[0];
    mmu.SetPage(CpuMode::kUser, 1, {victim.mem_base, victim.mem_words, PageAccess::kReadOnly});
  }
}

void SeparationKernel::RestoreContext(int regime) {
  ProgramMmuFor(regime);
  CpuState& cpu = machine_.cpu();
  const Word old_psw_bits = cpu.psw.bits();

  const int first_reg = config_.faults.skip_register_restore ? kSp : 0;
  for (int i = first_reg; i < 8; ++i) {
    cpu.regs[i] = SaveRead(regime, kSaveRegs + static_cast<std::uint32_t>(i));
  }

  Psw psw(SaveRead(regime, kSavePsw));
  psw.set_mode(CpuMode::kUser);  // regimes never run privileged
  if (config_.faults.leak_condition_codes) {
    // Injected defect: condition codes bleed across the switch.
    psw.set_bits(static_cast<Word>((psw.bits() & ~0x000F) | (old_psw_bits & 0x000F)));
  }
  cpu.psw = psw;

  KWrite(kOffCurrentRegime, static_cast<Word>(regime));
  machine_.set_waiting(false);

  // AWAIT completion (writing the pending mask into R0, vectoring into the
  // handler) is DEFERRED to the regime's own first CPU phase: this dispatch
  // may be running under another regime's SWAP, and performing visible work
  // on the incoming regime here would make one colour's operation change
  // another colour's abstract state. Φ^c treats awaiting and resume-work as
  // the same abstract "blocked in AWAIT" value, so this flag flip is
  // invisible to the regime's abstraction.
  Word flags = SaveRead(regime, kSaveFlags);
  if (flags & kFlagAwaiting) {
    SaveWrite(regime, kSaveFlags,
              static_cast<Word>((flags & ~kFlagAwaiting) | kFlagResumeWork));
  }
}

bool SeparationKernel::RegimeRunnable(int regime) const {
  const Word flags = SaveRead(regime, kSaveFlags);
  if (flags & kFlagHalted) {
    return false;
  }
  if ((flags & kFlagAwaiting) && SaveRead(regime, kSavePending) == 0) {
    return false;
  }
  return true;
}

bool SeparationKernel::HasDeliverableVector(int regime) const {
  const Word pending = SaveRead(regime, kSavePending);
  for (int d = 0; d < kMaxDevicesPerRegime; ++d) {
    if (((pending >> d) & 1) &&
        SaveRead(regime, kSaveVectors + static_cast<std::uint32_t>(d)) != 0) {
      return true;
    }
  }
  return false;
}

bool SeparationKernel::HasDeferredWork() const {
  if (!booted_) {
    return false;
  }
  const Word cur = CurrentRegime();
  if (cur == kIdleRegime) {
    return false;
  }
  const Word flags = SaveRead(cur, kSaveFlags);
  if (flags & kFlagResumeWork) {
    return true;
  }
  return (flags & kFlagInHandler) == 0 && HasDeliverableVector(cur);
}

bool SeparationKernel::OnBeforeExecute() {
  if (!HasDeferredWork()) {
    return false;
  }
  const int cur = CurrentRegime();
  const Word flags = SaveRead(cur, kSaveFlags);
  if (flags & kFlagResumeWork) {
    SaveWrite(cur, kSaveFlags, static_cast<Word>(flags & ~kFlagResumeWork));
    // AWAIT return ABI: R0 receives the pending mask.
    machine_.cpu().regs[0] = SaveRead(cur, kSavePending);
    if ((SaveRead(cur, kSaveFlags) & kFlagInHandler) == 0) {
      DeliverPendingInterrupt(cur);
    }
    return true;
  }
  DeliverPendingInterrupt(cur);
  return true;
}

void SeparationKernel::DispatchNext(int start_from) {
  const int n = static_cast<int>(config_.regimes.size());
  for (int i = 0; i < n; ++i) {
    const int candidate = ((start_from + i) % n + n) % n;
    if (RegimeRunnable(candidate)) {
      ++swaps_;
      if (obs::Enabled()) {
        obs::Emit(obs::Category::kKernel, obs::Code::kDispatch, obs::kColourKernel,
                  machine_.tick(), static_cast<Word>(candidate));
      }
      RestoreContext(candidate);
      return;
    }
  }
  EnterIdle();
}

void SeparationKernel::EnterIdle() {
  KWrite(kOffCurrentRegime, kIdleRegime);
  machine_.mmu().DisableAll(CpuMode::kUser);
  Psw idle;
  idle.set_mode(CpuMode::kKernel);
  idle.set_priority(0);
  machine_.cpu().psw = idle;
  if (AllRegimesHalted()) {
    machine_.set_halted(true);
  } else {
    machine_.set_waiting(true);
  }
}

// --- interrupt forwarding ----------------------------------------------------

void SeparationKernel::DeliverPendingInterrupt(int regime) {
  const Word pending = SaveRead(regime, kSavePending);
  int local = -1;
  Word vector = 0;
  for (int d = 0; d < kMaxDevicesPerRegime; ++d) {
    if ((pending >> d) & 1) {
      Word v = SaveRead(regime, kSaveVectors + static_cast<std::uint32_t>(d));
      if (v != 0) {
        local = d;
        vector = v;
        break;
      }
    }
  }
  if (local < 0) {
    return;  // nothing deliverable; bits stay pending
  }

  // Push PSW then PC onto the regime's own stack, enter its handler. This is
  // the "minor assistance" the paper says return-from-interrupt needs.
  CpuState& cpu = machine_.cpu();
  PhysAddr phys = 0;
  Word sp = cpu.sp();
  sp = static_cast<Word>(sp - 1);
  if (!RegimeVirtToPhys(regime, sp, &phys)) {
    FaultRegime("stack overflow during interrupt delivery");
    return;
  }
  machine_.PhysWrite(phys, cpu.psw.bits());
  sp = static_cast<Word>(sp - 1);
  if (!RegimeVirtToPhys(regime, sp, &phys)) {
    FaultRegime("stack overflow during interrupt delivery");
    return;
  }
  machine_.PhysWrite(phys, cpu.pc());
  cpu.set_sp(sp);
  cpu.set_pc(vector);

  // Delivery happens only at points anchored to the regime's own execution
  // (its AWAIT/RETI calls, its resume from AWAIT), so this event IS part of
  // the regime's canonical per-colour trace — unlike the forward below.
  ++irq_delivers_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kIrqDeliver, regime, machine_.tick(),
              static_cast<Word>(local), vector);
  }

  SaveWrite(regime, kSavePending, static_cast<Word>(pending & ~(1u << local)));
  SaveWrite(regime, kSaveFlags,
            static_cast<Word>(SaveRead(regime, kSaveFlags) | kFlagInHandler));
}

void SeparationKernel::OnInterrupt(int device_index) {
  SEP_CHECK(booted_);
  const int owner = DeviceOwner(device_index);
  if (owner < 0) {
    return;  // unowned device: interrupt dropped (config forbids this)
  }
  ++irq_forwards_;

  const int local = LocalDeviceIndex(owner, device_index);
  // Colour-tagged with the owner for profiling, but NOT colour-observable:
  // the forward instant is device time (it depends on how the shared
  // processor interleaves), and the owner only learns of it at delivery.
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kIrqForward, owner, machine_.tick(),
              static_cast<Word>(local));
  }
  SaveWrite(owner, kSavePending,
            static_cast<Word>(SaveRead(owner, kSavePending) | (1u << local)));

  if (config_.faults.broadcast_interrupts) {
    // Injected defect: every regime learns of every interrupt.
    for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
      SaveWrite(static_cast<int>(r), kSavePending,
                static_cast<Word>(SaveRead(static_cast<int>(r), kSavePending) | 1u));
    }
  }

  const Word cur = CurrentRegime();
  if (cur == static_cast<Word>(owner) &&
      (SaveRead(owner, kSaveFlags) & kFlagInHandler) == 0) {
    DeliverPendingInterrupt(owner);
  } else if (cur == kIdleRegime && RegimeRunnable(owner)) {
    RestoreContext(owner);
  }
}

// --- traps / kernel calls ----------------------------------------------------

void SeparationKernel::OnTrap(const TrapInfo& info) {
  SEP_CHECK(booted_);
  SEP_CHECK(CurrentRegime() != kIdleRegime);

  switch (info.kind) {
    case TrapInfo::Kind::kIllegalInstruction:
      FaultRegime("illegal instruction");
      return;
    case TrapInfo::Kind::kMmuFault:
      FaultRegime(Format("memory violation at %04X", info.fault_addr));
      return;
    case TrapInfo::Kind::kTrapInstruction:
      break;
  }

  ++kernel_calls_;
  // One event per kernel call, tagged with the calling regime: the paper's
  // COLOUR(s) for a TRAP operation. a1 is R0 at entry (channel id for
  // SEND/RECV/STAT, local device for SETVEC) — entry arguments only, so the
  // trace carries exactly what the regime itself put there.
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kKernelCall, CurrentRegime(),
              machine_.tick(), info.code, machine_.cpu().regs[0]);
  }
  switch (info.code) {
    case kCallSwap:
      CallSwap();
      return;
    case kCallSend:
      CallSend();
      return;
    case kCallRecv:
      CallRecv();
      return;
    case kCallStat:
      CallStat();
      return;
    case kCallSetVec:
      CallSetVec();
      return;
    case kCallReti:
      CallReti();
      return;
    case kCallAwait:
      CallAwait();
      return;
    case kCallHalt:
      CallHaltRegime();
      return;
    case kCallGetId:
      CallGetId();
      return;
    case kCallSendv:
      CallSendv();
      return;
    case kCallRecvv:
      CallRecvv();
      return;
    case kCallRingPut:
      CallRingPut();
      return;
    case kCallRingGet:
      CallRingGet();
      return;
    case kCallRingStat:
      CallRingStat();
      return;
    default:
      FaultRegime(Format("unknown kernel call %u", info.code));
      return;
  }
}

void SeparationKernel::FaultRegime(const std::string& reason) {
  const int cur = CurrentRegime();
  SEP_LOG(kInfo) << "regime " << config_.regimes[static_cast<std::size_t>(cur)].name
                 << " faulted: " << reason;
  ++faults_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kRegimeFault, cur, machine_.tick());
  }
  SaveWrite(cur, kSaveFlags, static_cast<Word>(SaveRead(cur, kSaveFlags) | kFlagHalted));
  DispatchNext(cur + 1);
}

void SeparationKernel::CallSwap() {
  const int cur = CurrentRegime();
  SaveCurrentContext();
  DispatchNext(cur + 1);
}

std::uint32_t SeparationKernel::RingBase(int channel, int end) const {
  return ChannelRingOffset(config_, channel, end);
}

bool SeparationKernel::RingPush(std::uint32_t ring_base, std::uint32_t capacity, Word value) {
  if (capacity == 0) {
    return false;  // defensive: a zero-capacity ring has no slot arithmetic
  }
  const Word head = KRead(ring_base);
  const Word count = KRead(ring_base + 1);
  if (count >= capacity) {
    return false;
  }
  KWrite(ring_base + 2 + (head + count) % capacity, value);
  KWrite(ring_base + 1, static_cast<Word>(count + 1));
  return true;
}

bool SeparationKernel::RingIntact(std::uint32_t ring_base, std::uint32_t capacity) const {
  if (capacity == 0) {
    return false;  // nothing about a zero-capacity ring can be trusted
  }
  const Word head = KRead(ring_base);
  const Word count = KRead(ring_base + 1);
  return head < capacity && count <= capacity;
}

bool SeparationKernel::RingPop(std::uint32_t ring_base, std::uint32_t capacity, Word* value) {
  if (capacity == 0) {
    return false;  // defensive: never reached behind a RingIntact check
  }
  const Word head = KRead(ring_base);
  const Word count = KRead(ring_base + 1);
  if (count == 0) {
    return false;
  }
  *value = KRead(ring_base + 2 + head % capacity);
  KWrite(ring_base, static_cast<Word>((head + 1) % capacity));
  KWrite(ring_base + 1, static_cast<Word>(count - 1));
  return true;
}

void SeparationKernel::RingPushBatch(std::uint32_t ring_base, std::uint32_t capacity,
                                     const std::vector<Word>& words) {
  const std::uint32_t head = KRead(ring_base);
  const std::uint32_t count = KRead(ring_base + 1);
  for (std::size_t i = 0; i < words.size(); ++i) {
    KWrite(ring_base + 2 + (head + count + static_cast<std::uint32_t>(i)) % capacity,
           words[i]);
  }
  KWrite(ring_base + 1, static_cast<Word>(count + words.size()));
}

void SeparationKernel::RingPopBatch(std::uint32_t ring_base, std::uint32_t capacity,
                                    std::uint32_t n, std::vector<Word>& out) {
  const std::uint32_t head = KRead(ring_base);
  const std::uint32_t count = KRead(ring_base + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(KRead(ring_base + 2 + (head + i) % capacity));
  }
  KWrite(ring_base, static_cast<Word>((head + n) % capacity));
  KWrite(ring_base + 1, static_cast<Word>(count - n));
}

void SeparationKernel::NoteChannelStall(Word id, Word requested) {
  ++channel_stalls_;
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kKernel, obs::Code::kChannelStall, CurrentRegime(),
              machine_.tick(), id, requested);
  }
}

void SeparationKernel::CallSend() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int channel = cpu.regs[0];
  if (channel >= static_cast<int>(config_.channels.size()) ||
      config_.channels[static_cast<std::size_t>(channel)].sender != cur) {
    FaultRegime(Format("SEND on channel %d not owned as sender", channel));
    return;
  }
  int target = channel;
  if (config_.faults.misroute_channels && config_.channels.size() > 1) {
    target = (channel + 1) % static_cast<int>(config_.channels.size());
  }
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(target)].capacity;
  if (!RingIntact(RingBase(target, 0), cap)) {
    FaultRegime(Format("SEND found channel %d ring corrupted", target));
    return;
  }
  const bool pushed = RingPush(RingBase(target, 0), cap, cpu.regs[1]);
  if (!pushed) {
    NoteChannelStall(static_cast<Word>(channel), 1);
  }
  cpu.regs[0] = pushed ? 1 : 0;
}

void SeparationKernel::CallRecv() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int channel = cpu.regs[0];
  if (channel >= static_cast<int>(config_.channels.size()) ||
      config_.channels[static_cast<std::size_t>(channel)].receiver != cur) {
    FaultRegime(Format("RECV on channel %d not owned as receiver", channel));
    return;
  }
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(channel)].capacity;
  if (!RingIntact(RingBase(channel, 1), cap)) {
    FaultRegime(Format("RECV found channel %d ring corrupted", channel));
    return;
  }
  Word value = 0;
  if (RingPop(RingBase(channel, 1), cap, &value)) {
    cpu.regs[0] = 1;
    cpu.regs[1] = value;
  } else {
    cpu.regs[0] = 0;
  }
}

void SeparationKernel::CallStat() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int channel = cpu.regs[0];
  if (channel >= static_cast<int>(config_.channels.size())) {
    FaultRegime(Format("STAT on nonexistent channel %d", channel));
    return;
  }
  const ChannelConfig& cc = config_.channels[static_cast<std::size_t>(channel)];
  if (cc.sender != cur && cc.receiver != cur) {
    FaultRegime(Format("STAT on channel %d without endpoint rights", channel));
    return;
  }
  if ((cc.receiver == cur && !RingIntact(RingBase(channel, 1), cc.capacity)) ||
      (cc.sender == cur && !RingIntact(RingBase(channel, 0), cc.capacity))) {
    FaultRegime(Format("STAT found channel %d ring corrupted", channel));
    return;
  }
  cpu.regs[0] = (cc.receiver == cur) ? KRead(RingBase(channel, 1) + 1) : 0;
  cpu.regs[1] = (cc.sender == cur)
                    ? static_cast<Word>(cc.capacity - KRead(RingBase(channel, 0) + 1))
                    : 0;
}

void SeparationKernel::CallSetVec() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const Word local = cpu.regs[0];
  // Legal lines: the regime's local devices, then its ring doorbells.
  const std::size_t lines =
      config_.regimes[static_cast<std::size_t>(cur)].device_slots.size() +
      static_cast<std::size_t>(DoorbellLineCount(cur));
  if (local >= lines) {
    FaultRegime(Format("SETVEC for nonexistent local device %u", local));
    return;
  }
  // A handler address outside the regime's own partition can never be
  // executed; 0 is the "no handler" sentinel and stays legal.
  if (cpu.regs[1] >= config_.regimes[static_cast<std::size_t>(cur)].mem_words) {
    FaultRegime(Format("SETVEC handler %04X outside partition", cpu.regs[1]));
    return;
  }
  SaveWrite(cur, kSaveVectors + local, cpu.regs[1]);
}

void SeparationKernel::CallReti() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  if ((SaveRead(cur, kSaveFlags) & kFlagInHandler) == 0) {
    FaultRegime("RETI outside interrupt handler");
    return;
  }
  PhysAddr phys = 0;
  Word sp = cpu.sp();
  if (!RegimeVirtToPhys(cur, sp, &phys)) {
    FaultRegime("stack underflow in RETI");
    return;
  }
  const Word pc = machine_.PhysRead(phys);
  sp = static_cast<Word>(sp + 1);
  if (!RegimeVirtToPhys(cur, sp, &phys)) {
    FaultRegime("stack underflow in RETI");
    return;
  }
  const Word psw_bits = machine_.PhysRead(phys);
  sp = static_cast<Word>(sp + 1);

  cpu.set_sp(sp);
  cpu.set_pc(pc);
  Psw psw(psw_bits);
  psw.set_mode(CpuMode::kUser);
  cpu.psw = psw;
  SaveWrite(cur, kSaveFlags, static_cast<Word>(SaveRead(cur, kSaveFlags) & ~kFlagInHandler));

  // Chain delivery if more interrupts arrived meanwhile.
  if (SaveRead(cur, kSavePending) != 0) {
    DeliverPendingInterrupt(cur);
  }
}

void SeparationKernel::CallAwait() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const Word pending = SaveRead(cur, kSavePending);
  if (pending != 0) {
    cpu.regs[0] = pending;
    if ((SaveRead(cur, kSaveFlags) & kFlagInHandler) == 0) {
      DeliverPendingInterrupt(cur);
    }
    return;
  }
  SaveWrite(cur, kSaveFlags, static_cast<Word>(SaveRead(cur, kSaveFlags) | kFlagAwaiting));
  SaveCurrentContext();
  DispatchNext(cur + 1);
}

void SeparationKernel::CallHaltRegime() {
  const int cur = CurrentRegime();
  SaveCurrentContext();
  SaveWrite(cur, kSaveFlags, static_cast<Word>(SaveRead(cur, kSaveFlags) | kFlagHalted));
  DispatchNext(cur + 1);
}

void SeparationKernel::CallGetId() { machine_.cpu().regs[0] = CurrentRegime(); }

// --- batched channel fabric ---------------------------------------------------

bool SeparationKernel::ReadSgDescriptors(int regime, std::vector<SgExtent>& out,
                                         std::uint32_t* total) {
  const CpuState& cpu = machine_.cpu();
  const RegimeConfig& rc = config_.regimes[static_cast<std::size_t>(regime)];
  const Word table = cpu.regs[1];
  const Word n = cpu.regs[2];
  if (n == 0 || n > kMaxBatchDescriptors) {
    FaultRegime(Format("scatter-gather descriptor count %u out of range", n));
    return false;
  }
  if (static_cast<std::uint32_t>(table) + 2u * n > rc.mem_words) {
    FaultRegime(Format("descriptor table %04X outside partition", table));
    return false;
  }
  *total = 0;
  for (Word i = 0; i < n; ++i) {
    const Word addr = machine_.PhysRead(rc.mem_base + table + 2u * i);
    const Word len = machine_.PhysRead(rc.mem_base + table + 2u * i + 1);
    if (len == 0) {
      FaultRegime(Format("zero-length scatter-gather descriptor %u", i));
      return false;
    }
    if (static_cast<std::uint32_t>(addr) + len > rc.mem_words) {
      FaultRegime(Format("scatter-gather payload %04X+%u outside partition", addr, len));
      return false;
    }
    *total += len;
    if (*total > kMaxBatchWords) {
      FaultRegime(Format("scatter-gather batch exceeds %u words", kMaxBatchWords));
      return false;
    }
    out.push_back({rc.mem_base + addr, len});
  }
  return true;
}

void SeparationKernel::CallSendv() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int channel = cpu.regs[0];
  if (channel >= static_cast<int>(config_.channels.size()) ||
      config_.channels[static_cast<std::size_t>(channel)].sender != cur) {
    FaultRegime(Format("SENDV on channel %d not owned as sender", channel));
    return;
  }
  std::vector<SgExtent> extents;
  std::uint32_t total = 0;
  if (!ReadSgDescriptors(cur, extents, &total)) {
    return;  // already faulted
  }
  int target = channel;
  if (config_.faults.misroute_channels && config_.channels.size() > 1) {
    target = (channel + 1) % static_cast<int>(config_.channels.size());
  }
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(target)].capacity;
  const std::uint32_t base = RingBase(target, 0);
  // ONE intactness validation and one header read cover the whole batch.
  if (!RingIntact(base, cap)) {
    FaultRegime(Format("SENDV found channel %d ring corrupted", target));
    return;
  }
  const Word count = KRead(base + 1);
  if (static_cast<std::uint32_t>(count) + total > cap) {
    // All-or-nothing: a batch that does not fit is a backpressure stall, not
    // a partial transfer — the caller retries the whole batch.
    NoteChannelStall(static_cast<Word>(channel), static_cast<Word>(total));
    cpu.regs[0] = 0;
    return;
  }
  std::vector<Word> words;
  words.reserve(total);
  for (const SgExtent& extent : extents) {
    for (std::uint32_t i = 0; i < extent.words; ++i) {
      words.push_back(machine_.PhysRead(extent.base + i));
    }
  }
  RingPushBatch(base, cap, words);
  cpu.regs[0] = static_cast<Word>(total);
}

void SeparationKernel::CallRecvv() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int channel = cpu.regs[0];
  if (channel >= static_cast<int>(config_.channels.size()) ||
      config_.channels[static_cast<std::size_t>(channel)].receiver != cur) {
    FaultRegime(Format("RECVV on channel %d not owned as receiver", channel));
    return;
  }
  std::vector<SgExtent> extents;
  std::uint32_t total = 0;
  if (!ReadSgDescriptors(cur, extents, &total)) {
    return;  // already faulted
  }
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(channel)].capacity;
  const std::uint32_t base = RingBase(channel, 1);
  if (!RingIntact(base, cap)) {
    FaultRegime(Format("RECVV found channel %d ring corrupted", channel));
    return;
  }
  const Word count = KRead(base + 1);
  const std::uint32_t n = count < total ? count : total;
  std::vector<Word> words;
  words.reserve(n);
  RingPopBatch(base, cap, n, words);
  std::size_t w = 0;
  for (const SgExtent& extent : extents) {
    for (std::uint32_t i = 0; i < extent.words && w < words.size(); ++i) {
      machine_.PhysWrite(extent.base + i, words[w++]);
    }
  }
  cpu.regs[0] = static_cast<Word>(n);
}

void SeparationKernel::CallRingPut() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int ring = cpu.regs[0];
  if (ring >= static_cast<int>(config_.shared_rings.size()) ||
      config_.shared_rings[static_cast<std::size_t>(ring)].producer != cur) {
    FaultRegime(Format("RINGPUT on ring %d not owned as producer", ring));
    return;
  }
  const SharedRingConfig& rc = config_.shared_rings[static_cast<std::size_t>(ring)];
  const std::uint32_t ctl = SharedRingCtlOffset(config_, ring);
  const Word head = KRead(ctl + kSharedRingHead);
  const Word tail = KRead(ctl + kSharedRingTail);
  const std::uint32_t occupancy = static_cast<Word>(tail - head);
  if (occupancy > rc.capacity) {
    FaultRegime(Format("RINGPUT found ring %d indices corrupted", ring));
    return;
  }
  const Word n = cpu.regs[1];
  if (n == 0 || n > rc.capacity) {
    FaultRegime(Format("RINGPUT of %u words on ring %d", n, ring));
    return;
  }
  if (occupancy + n > rc.capacity) {
    NoteChannelStall(static_cast<Word>(0x8000 | ring), n);
    cpu.regs[0] = 0;
    return;
  }
  KWrite(ctl + kSharedRingTail, static_cast<Word>(tail + n));
  const Word after = static_cast<Word>(occupancy + n);
  if (after > KRead(ctl + kSharedRingWatermark)) {
    KWrite(ctl + kSharedRingWatermark, after);
  }
  cpu.regs[0] = 1;
  if (occupancy == 0) {
    // Empty -> non-empty: raise the consumer's doorbell line. Delivery stays
    // anchored to the CONSUMER's own execution (its AWAIT return, its RETI
    // chain, its resume from dispatch), exactly like a device interrupt.
    const int line = DoorbellLine(rc.consumer, ring);
    SaveWrite(rc.consumer, kSavePending,
              static_cast<Word>(SaveRead(rc.consumer, kSavePending) | (1u << line)));
  }
}

void SeparationKernel::CallRingGet() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int ring = cpu.regs[0];
  if (ring >= static_cast<int>(config_.shared_rings.size()) ||
      config_.shared_rings[static_cast<std::size_t>(ring)].consumer != cur) {
    FaultRegime(Format("RINGGET on ring %d not owned as consumer", ring));
    return;
  }
  const SharedRingConfig& rc = config_.shared_rings[static_cast<std::size_t>(ring)];
  const std::uint32_t ctl = SharedRingCtlOffset(config_, ring);
  const Word head = KRead(ctl + kSharedRingHead);
  const Word tail = KRead(ctl + kSharedRingTail);
  const std::uint32_t occupancy = static_cast<Word>(tail - head);
  if (occupancy > rc.capacity) {
    FaultRegime(Format("RINGGET found ring %d indices corrupted", ring));
    return;
  }
  const Word n = cpu.regs[1];
  if (n == 0 || n > occupancy) {
    // Releasing words that were never published would let the consumer walk
    // head past tail — a protocol violation, not flow control.
    FaultRegime(Format("RINGGET releasing %u of %u words on ring %d", n,
                       static_cast<unsigned>(occupancy), ring));
    return;
  }
  KWrite(ctl + kSharedRingHead, static_cast<Word>(head + n));
  cpu.regs[0] = 1;
  if (n == occupancy) {
    // Drained: lower the doorbell so the next publish re-raises it on its
    // empty -> non-empty edge.
    const int line = DoorbellLine(cur, ring);
    SaveWrite(cur, kSavePending,
              static_cast<Word>(SaveRead(cur, kSavePending) & ~(1u << line)));
  }
}

void SeparationKernel::CallRingStat() {
  const int cur = CurrentRegime();
  CpuState& cpu = machine_.cpu();
  const int ring = cpu.regs[0];
  if (ring >= static_cast<int>(config_.shared_rings.size())) {
    FaultRegime(Format("RINGSTAT on nonexistent ring %d", ring));
    return;
  }
  const SharedRingConfig& rc = config_.shared_rings[static_cast<std::size_t>(ring)];
  if (rc.producer != cur && rc.consumer != cur) {
    FaultRegime(Format("RINGSTAT on ring %d without endpoint rights", ring));
    return;
  }
  const std::uint32_t ctl = SharedRingCtlOffset(config_, ring);
  const std::uint32_t occupancy =
      static_cast<Word>(KRead(ctl + kSharedRingTail) - KRead(ctl + kSharedRingHead));
  if (occupancy > rc.capacity) {
    FaultRegime(Format("RINGSTAT found ring %d indices corrupted", ring));
    return;
  }
  cpu.regs[0] = static_cast<Word>(occupancy);
  cpu.regs[1] = static_cast<Word>(rc.capacity - occupancy);
  cpu.regs[2] = KRead(ctl + kSharedRingWatermark);
}

// --- checker support ----------------------------------------------------------

Result<> SeparationKernel::Adopt() {
  if (Result<> r = ValidateConfig(config_, machine_.memory().size(), machine_.device_count());
      !r.ok()) {
    return r;
  }
  machine_.set_client(this);
  booted_ = true;
  return Ok();
}

void SeparationKernel::AppendRingLogical(int channel, int end, std::vector<Word>& out) const {
  const std::uint32_t base = ChannelRingOffset(config_, channel, end);
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(channel)].capacity;
  const Word head = KRead(base);
  const Word count = KRead(base + 1);
  out.push_back(count);
  for (Word k = 0; k < count && k < cap; ++k) {
    out.push_back(KRead(base + 2 + (head + k) % cap));
  }
}

std::vector<Word> SeparationKernel::AbstractProjection(int colour) const {
  std::vector<Word> out;
  out.reserve(config_.regimes[static_cast<std::size_t>(colour)].mem_words + 64);
  AppendAbstract(colour, out);
  return out;
}

void SeparationKernel::AppendAbstract(int colour, std::vector<Word>& out) const {
  const RegimeConfig& rc = config_.regimes[static_cast<std::size_t>(colour)];
  const PhysicalMemory& memory = machine_.memory();

  // 1. The regime's private memory partition.
  const std::span<const Word> partition = memory.Words(rc.mem_base, rc.mem_words);
  out.insert(out.end(), partition.begin(), partition.end());

  // 2. Register VALUES — live when active, from the save area otherwise.
  // The abstraction is location-independent: this is exactly why the SWAP
  // operation, which moves values between the CPU and the save areas, is
  // secure even though syntactic flow analysis rejects it.
  const bool active = CurrentRegime() == static_cast<Word>(colour);
  for (int i = 0; i < 8; ++i) {
    out.push_back(active ? machine_.cpu().regs[i]
                         : SaveRead(colour, kSaveRegs + static_cast<std::uint32_t>(i)));
  }
  out.push_back(active ? machine_.cpu().psw.bits() : SaveRead(colour, kSavePsw));

  // 3. Scheduling flags, normalized: "awaiting" and "resume-work" are the
  // same abstract blocked-in-AWAIT state.
  const Word flags = SaveRead(colour, kSaveFlags);
  out.push_back((flags & kFlagHalted) ? 1 : 0);
  out.push_back((flags & (kFlagAwaiting | kFlagResumeWork)) ? 1 : 0);
  out.push_back((flags & kFlagInHandler) ? 1 : 0);
  out.push_back(SaveRead(colour, kSavePending));
  for (std::uint32_t d = 0; d < kMaxDevicesPerRegime; ++d) {
    out.push_back(SaveRead(colour, kSaveVectors + d));
  }

  // 4. The regime's devices (registers, countdowns, environment queues,
  // interrupt line).
  for (int slot : rc.device_slots) {
    std::vector<Word> ds = machine_.device(slot).SnapshotState();
    out.push_back(static_cast<Word>(ds.size()));
    out.insert(out.end(), ds.begin(), ds.end());
  }

  // 5. The regime's channel ends, as logical queue contents.
  for (std::size_t i = 0; i < config_.channels.size(); ++i) {
    const ChannelConfig& ch = config_.channels[i];
    if (ch.sender == colour) {
      AppendRingLogical(static_cast<int>(i), 0, out);
    }
    if (ch.receiver == colour) {
      AppendRingLogical(static_cast<int>(i), 1, out);
    }
  }

  // 6. Shared rings the regime maps. The whole data window is in BOTH
  // endpoints' views (the producer maps it read-write, the consumer
  // read-only over every slot), as are the kernel-owned indices and the
  // watermark RINGSTAT surfaces. Like an uncut classic channel, a shared
  // ring is a deliberate shared object: the wire-cutting discipline, not the
  // perturbation argument, is what discharges it. ValidateConfig places the
  // window inside memory, below the I/O page.
  for (std::size_t i = 0; i < config_.shared_rings.size(); ++i) {
    const SharedRingConfig& ring = config_.shared_rings[i];
    if (ring.producer != colour && ring.consumer != colour) {
      continue;
    }
    const std::uint32_t ctl = SharedRingCtlOffset(config_, static_cast<int>(i));
    out.push_back(KRead(ctl + kSharedRingHead));
    out.push_back(KRead(ctl + kSharedRingTail));
    out.push_back(KRead(ctl + kSharedRingWatermark));
    const std::span<const Word> window = memory.Words(ring.data_base, ring.capacity);
    out.insert(out.end(), window.begin(), window.end());
  }
}

void SeparationKernel::PerturbRing(int channel, int end, Rng& rng) {
  const std::uint32_t base = ChannelRingOffset(config_, channel, end);
  const std::uint32_t cap = config_.channels[static_cast<std::size_t>(channel)].capacity;
  KWrite(base, static_cast<Word>(rng.NextBelow(cap)));
  KWrite(base + 1, static_cast<Word>(rng.NextBelow(cap + 1)));
  for (std::uint32_t k = 0; k < cap; ++k) {
    KWrite(base + 2 + k, static_cast<Word>(rng.Next() & 0xFFFF));
  }
}

void SeparationKernel::PerturbNonColour(int colour, Rng& rng) {
  const Word cur = CurrentRegime();

  for (std::size_t r = 0; r < config_.regimes.size(); ++r) {
    if (static_cast<int>(r) == colour) {
      continue;
    }
    const RegimeConfig& rc = config_.regimes[r];
    for (std::uint32_t i = 0; i < rc.mem_words; ++i) {
      machine_.PhysWrite(rc.mem_base + i, static_cast<Word>(rng.Next() & 0xFFFF));
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      SaveWrite(static_cast<int>(r), kSaveRegs + i, static_cast<Word>(rng.Next() & 0xFFFF));
    }
    SaveWrite(static_cast<int>(r), kSavePsw,
              static_cast<Word>((rng.Next() & 0x00FF) | 0x8000));
    SaveWrite(static_cast<int>(r), kSaveFlags, static_cast<Word>(rng.Next() & 0xF));
    SaveWrite(static_cast<int>(r), kSavePending,
              static_cast<Word>(rng.Next() &
                                ((1u << (rc.device_slots.size() +
                                         static_cast<std::size_t>(DoorbellLineCount(
                                             static_cast<int>(r))))) -
                                 1)));
    for (std::uint32_t d = 0; d < kMaxDevicesPerRegime; ++d) {
      SaveWrite(static_cast<int>(r), kSaveVectors + d,
                static_cast<Word>(rng.NextBelow(rc.mem_words)));
    }
    for (int slot : rc.device_slots) {
      machine_.device(slot).Perturb(rng);
    }
  }

  // Channel rings not in colour's view.
  for (std::size_t i = 0; i < config_.channels.size(); ++i) {
    const ChannelConfig& ch = config_.channels[i];
    const bool mine = ch.sender == colour || ch.receiver == colour;
    if (config_.cut_channels) {
      if (ch.sender != colour) {
        PerturbRing(static_cast<int>(i), 0, rng);
      }
      if (ch.receiver != colour) {
        PerturbRing(static_cast<int>(i), 1, rng);
      }
    } else if (!mine) {
      PerturbRing(static_cast<int>(i), 0, rng);
    }
  }

  // Shared rings touching neither endpoint == colour are entirely outside
  // the colour's view: randomize indices (keeping occupancy <= capacity, the
  // representation invariant) and the whole data window.
  for (std::size_t i = 0; i < config_.shared_rings.size(); ++i) {
    const SharedRingConfig& ring = config_.shared_rings[i];
    if (ring.producer == colour || ring.consumer == colour) {
      continue;
    }
    const std::uint32_t ctl = SharedRingCtlOffset(config_, static_cast<int>(i));
    const Word head = static_cast<Word>(rng.Next() & 0xFFFF);
    KWrite(ctl + kSharedRingHead, head);
    KWrite(ctl + kSharedRingTail,
           static_cast<Word>(head + rng.NextBelow(ring.capacity + 1)));
    KWrite(ctl + kSharedRingWatermark, static_cast<Word>(rng.NextBelow(ring.capacity + 1)));
    for (std::uint32_t k = 0; k < ring.capacity; ++k) {
      machine_.PhysWrite(ring.data_base + k, static_cast<Word>(rng.Next() & 0xFFFF));
    }
  }

  // Live CPU registers belong to the current regime (or to nobody, when
  // idle). Keep the PSW priority/mode so interrupt deliverability — and
  // hence COLOUR(s) — is preserved.
  if (cur != static_cast<Word>(colour)) {
    CpuState& cpu = machine_.cpu();
    for (int i = 0; i < 8; ++i) {
      cpu.regs[i] = static_cast<Word>(rng.Next() & 0xFFFF);
    }
    if (cur != kIdleRegime) {
      Psw psw = cpu.psw;
      psw.set_bits(static_cast<Word>((psw.bits() & ~0x000F) | (rng.Next() & 0xF)));
      cpu.psw = psw;
    }
  }
}

}  // namespace sep
