// PhysicalMemory: copies are independent, a store moves the version counter
// (the predecode cache's invalidation signal) of its page only when it lands
// on a decoded word, restores move the versions of the pages whose content
// changes, and a kernelized machine's memory is exactly the words its
// configuration carves out.
#include <gtest/gtest.h>

#include "src/core/kernel_system.h"
#include "src/machine/machine.h"
#include "src/machine/memory.h"
#include "src/sm11asm/assembler.h"
#include "tests/test_util.h"

namespace sep {
namespace {

constexpr std::size_t kWords = 1u << 12;

TEST(CowMemory, FreshMemoryReadsZero) {
  PhysicalMemory mem(kWords);
  EXPECT_EQ(mem.size(), kWords);
  for (PhysAddr a : {PhysAddr{0}, PhysAddr{1000}, PhysAddr{kWords - 1}}) {
    EXPECT_EQ(mem.Read(a), 0u);
  }
  EXPECT_TRUE(mem == PhysicalMemory(kWords));
}

TEST(CowMemory, WriteAfterCopyIsolates) {
  PhysicalMemory mem(kWords);
  mem.Write(100, 1);
  PhysicalMemory copy = mem;
  EXPECT_TRUE(mem == copy);

  copy.Write(100, 2);
  EXPECT_EQ(mem.Read(100), 1u);
  EXPECT_EQ(copy.Read(100), 2u);
  EXPECT_FALSE(mem == copy);
}

TEST(CowMemory, FillAndLoadImageOnSharedPagesIsolate) {
  PhysicalMemory mem(kWords);
  PhysicalMemory copy = mem;
  copy.Fill(0, 512, 0xAA);
  copy.LoadImage(768, {1, 2, 3});
  EXPECT_EQ(mem.Read(0), 0u);
  EXPECT_EQ(mem.Read(768), 0u);
  EXPECT_EQ(copy.Read(0), 0xAAu);
  EXPECT_EQ(copy.Read(511), 0xAAu);
  EXPECT_EQ(copy.Read(512), 0u);
  EXPECT_EQ(copy.Read(768 + 2), 3u);
}

TEST(CowMemory, WriteBumpsOnlyItsVersionPage) {
  constexpr PhysAddr kPage = PhysicalMemory::kVersionPageWords;
  PhysicalMemory mem(kWords);
  mem.MarkCode(kPage + 5, 1);
  const std::uint64_t v0 = mem.PageVersion(0);
  const std::uint64_t v1 = mem.PageVersion(kPage);
  const std::uint64_t v2 = mem.PageVersion(2 * kPage);

  // A write to a marked (decoded) word moves its own page's version by one
  // and leaves its neighbours alone.
  mem.Write(kPage + 5, 9);
  EXPECT_EQ(mem.PageVersion(0), v0);
  EXPECT_EQ(mem.PageVersion(kPage), v1 + 1);
  EXPECT_EQ(mem.PageVersion(2 * kPage - 1), v1 + 1);
  EXPECT_EQ(mem.PageVersion(2 * kPage), v2);

  // A write to an unmarked word on the same page — a guest variable beside
  // its code — moves nothing.
  mem.Write(kPage + 6, 7);
  mem.Write(kPage + 4, 7);
  EXPECT_EQ(mem.Read(kPage + 6), 7u);
  EXPECT_EQ(mem.PageVersion(0), v0);
  EXPECT_EQ(mem.PageVersion(kPage), v1 + 1);
  EXPECT_EQ(mem.PageVersion(2 * kPage), v2);

  // A marked range that crosses a page boundary (a three-word instruction
  // starting two words before it) marks words on both pages.
  mem.MarkCode(2 * kPage - 2, 3);
  mem.Write(2 * kPage - 1, 1);
  EXPECT_EQ(mem.PageVersion(kPage), v1 + 2);
  EXPECT_EQ(mem.PageVersion(2 * kPage), v2);
  mem.Write(2 * kPage, 1);
  EXPECT_EQ(mem.PageVersion(kPage), v1 + 2);
  EXPECT_EQ(mem.PageVersion(2 * kPage), v2 + 1);
  mem.Write(2 * kPage + 1, 1);  // just past the range
  EXPECT_EQ(mem.PageVersion(2 * kPage), v2 + 1);
}

TEST(CowMemory, RestoreWordsRoundTripsAndKeepsUnchangedVersions) {
  PhysicalMemory mem(kWords);
  mem.Fill(0, 64, 3);
  mem.Write(2000, 0x1234);

  std::vector<Word> snapshot;
  mem.AppendTo(snapshot);
  ASSERT_EQ(snapshot.size(), kWords);

  // Restoring the state the memory is already in is version-neutral.
  const std::uint64_t v_code = mem.PageVersion(0);
  const std::uint64_t v_data = mem.PageVersion(2000);
  mem.RestoreWords(snapshot);
  EXPECT_EQ(mem.PageVersion(0), v_code);
  EXPECT_EQ(mem.PageVersion(2000), v_data);

  // Mutate, then restore: content is back and only the pages that differed
  // moved their versions.
  mem.Write(2000, 0xFFFF);
  mem.Write(2001, 0xEEEE);
  const std::uint64_t v_dirty = mem.PageVersion(2000);
  const std::uint64_t v_far = mem.PageVersion(3000);
  mem.RestoreWords(snapshot);
  EXPECT_EQ(mem.Read(2000), 0x1234u);
  EXPECT_EQ(mem.Read(2001), 0u);
  EXPECT_EQ(mem.Read(0), 3u);
  EXPECT_EQ(mem.PageVersion(0), v_code);          // untouched content, untouched version
  EXPECT_EQ(mem.PageVersion(2000), v_dirty + 1);  // one bump for the restored page
  EXPECT_EQ(mem.PageVersion(3000), v_far);        // never written at all
  PhysicalMemory fresh(kWords);
  fresh.Fill(0, 64, 3);
  fresh.Write(2000, 0x1234);
  EXPECT_TRUE(mem == fresh);

  // A carve-out need not be a whole number of pages or scan blocks.
  PhysicalMemory odd(1000);
  odd.Write(999, 7);
  std::vector<Word> odd_snapshot;
  odd.AppendTo(odd_snapshot);
  odd.Write(999, 8);
  const std::uint64_t v_tail = odd.PageVersion(999);
  odd.RestoreWords(odd_snapshot);
  EXPECT_EQ(odd.Read(999), 7u);
  EXPECT_EQ(odd.PageVersion(999), v_tail + 1);
}

TEST(CowMemory, RestoredCodeKeepsPredecodedCacheValid) {
  // A machine restored to a snapshot where its CODE is unchanged must keep
  // executing correctly: RestoreWords may only leave a version untouched
  // when the content is untouched, or the predecode cache would serve stale
  // instructions.
  auto m = MakeBareMachine();
  Result<AssembledProgram> p = Assemble(R"(
        CLR R0
LOOP:   INC R0
        CMP #5, R0
        BNE LOOP
        HALT
)");
  ASSERT_TRUE(p.ok()) << p.error();
  m->memory().LoadImage(p->base, p->words);
  m->cpu().set_pc(p->EntryPoint());
  m->cpu().set_sp(0x1000);

  const std::vector<Word> boot = m->SnapshotFull();
  m->Run(100);
  EXPECT_TRUE(m->halted());
  EXPECT_EQ(m->cpu().regs[0], 5);

  // Restore to boot (same code, different registers/flags) and re-run: the
  // predecoded loop body must still execute to the same result.
  ASSERT_TRUE(m->RestoreFull(boot));
  EXPECT_FALSE(m->halted());
  EXPECT_EQ(m->cpu().regs[0], 0u);
  m->Run(100);
  EXPECT_TRUE(m->halted());
  EXPECT_EQ(m->cpu().regs[0], 5);
}

TEST(CowMemory, ClonedMachinesDivergeIndependently) {
  // Clone mid-run: both machines continue from the same state but must not
  // observe each other's writes (the checker's per-transition isolation).
  auto m = MakeBareMachine();
  Result<AssembledProgram> p = Assemble(R"(
        CLR R0
LOOP:   INC R0
        MOV R0, @0x300
        CMP #8, R0
        BNE LOOP
        HALT
)");
  ASSERT_TRUE(p.ok()) << p.error();
  m->memory().LoadImage(p->base, p->words);
  m->cpu().set_pc(p->EntryPoint());
  m->cpu().set_sp(0x1000);

  m->Step();  // CLR
  m->Step();  // first INC
  auto clone = m->Clone();

  m->Run(100);
  EXPECT_TRUE(m->halted());
  EXPECT_EQ(m->memory().Read(0x300), 8u);

  // The clone is still parked before its first store.
  EXPECT_FALSE(clone->halted());
  EXPECT_EQ(clone->memory().Read(0x300), 0u);
  clone->Run(100);
  EXPECT_TRUE(clone->halted());
  EXPECT_EQ(clone->memory().Read(0x300), 8u);
}

constexpr char kHalt[] = "HALT\n";

TEST(BuilderMemory, SizedToTheCarveOut) {
  // Regime partitions, then the kernel partition (save areas plus channel
  // rings plus shared-ring control blocks), then the shared-ring windows.
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("a", 512, kHalt).ok());
  ASSERT_TRUE(builder.AddRegime("b", 256, kHalt).ok());
  ASSERT_TRUE(builder.AddRegime("c", 128, kHalt).ok());
  builder.AddChannel("ab", 0, 1, 16);
  builder.AddChannel("bc", 1, 2, 32);
  builder.AddSharedRing("ring_ab", 0, 1, 64);
  builder.AddSharedRing("ring_ca", 2, 0, 8);
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  ASSERT_TRUE(system.ok()) << system.error();
  const KernelConfig& config = (*system)->kernel().config();
  const std::size_t carved = 512 + 256 + 128 + RequiredKernelWords(config) + 64 + 8;
  EXPECT_EQ((*system)->machine().memory().size(), carved);
  EXPECT_EQ(config.shared_rings.back().data_base + config.shared_rings.back().capacity, carved);
}

TEST(BuilderMemory, ExplicitSizeIsHonoured) {
  SystemBuilder builder;
  builder.WithMemoryWords(4096);
  ASSERT_TRUE(builder.AddRegime("a", 512, kHalt).ok());
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  ASSERT_TRUE(system.ok()) << system.error();
  EXPECT_EQ((*system)->machine().memory().size(), 4096u);
}

TEST(BuilderMemory, CarveOutAboveTheIoPageIsAnError) {
  // Partitions reaching into the device-register page cannot be backed by
  // memory: Build() reports it instead of constructing the machine.
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegimeImage("huge", MachineConfig{}.io_base, 0, {0}).ok());
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  ASSERT_FALSE(system.ok());
  EXPECT_NE(system.error().find("I/O page"), std::string::npos) << system.error();
}

}  // namespace
}  // namespace sep
