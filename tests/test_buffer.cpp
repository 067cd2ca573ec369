/**
 * @file
 * Unit tests for src/buffer: bank-conflict math (§V-B) and the data-holding
 * scratchpad models.
 */

#include <gtest/gtest.h>

#include "buffer/scratchpad.hpp"
#include "buffer/spec.hpp"
#include "common/bits.hpp"

namespace feather {
namespace {

BufferSpec
spec(int64_t lines, int64_t line_size, int64_t lines_per_bank, int ports = 2)
{
    BufferSpec s;
    s.num_lines = lines;
    s.line_size = line_size;
    s.lines_per_bank = lines_per_bank;
    s.read_ports = ports;
    s.write_ports = ports;
    return s;
}

TEST(BufferSpec, BankMapping)
{
    const BufferSpec s = spec(16, 8, 4);
    EXPECT_EQ(s.bankOf(0), 0);
    EXPECT_EQ(s.bankOf(3), 0);
    EXPECT_EQ(s.bankOf(4), 1);
    EXPECT_EQ(s.bankOf(15), 3);
    EXPECT_EQ(s.numBanks(), 4);
    EXPECT_EQ(s.capacityWords(), 128);
}

TEST(Conflict, NoLinesNoCycles)
{
    EXPECT_EQ(conflictCycles(spec(16, 8, 4), {}, 2), 0);
}

TEST(Conflict, WithinPortsIsOneCycle)
{
    const BufferSpec s = spec(16, 8, 4);
    EXPECT_EQ(readConflictCycles(s, {0}), 1);
    EXPECT_EQ(readConflictCycles(s, {0, 1}), 1);       // 2 lines, 2 ports
    EXPECT_EQ(readConflictCycles(s, {0, 4, 8, 12}), 1); // all diff banks
}

TEST(Conflict, PaperHalfSlowdownExample)
{
    // Fig. 4-M2/M7: four lines in one bank with dual ports -> 2 cycles,
    // i.e. the paper's "2/4 = 0.5 slowdown".
    const BufferSpec s = spec(16, 8, 16); // single bank
    EXPECT_EQ(readConflictCycles(s, {0, 1, 2, 3}), 2);
    // Fig. 4-M3: three lines, dual port -> ceil(3/2) = 2 cycles
    // (paper reports 2/3 = 0.667 effective rate, i.e. 2 accesses needed).
    EXPECT_EQ(readConflictCycles(s, {0, 1, 2}), 2);
}

TEST(Conflict, DuplicateLinesCollapse)
{
    const BufferSpec s = spec(16, 8, 16);
    EXPECT_EQ(readConflictCycles(s, {3, 3, 3, 3}), 1);
}

TEST(Conflict, WorstBankDominates)
{
    const BufferSpec s = spec(16, 8, 4);
    // Bank 0 gets 3 lines (2 cycles), bank 1 gets 1 line (1 cycle).
    EXPECT_EQ(readConflictCycles(s, {0, 1, 2, 4}), 2);
    // 5 lines in one bank with 2 ports -> 3 cycles.
    const BufferSpec one_bank = spec(8, 8, 8);
    EXPECT_EQ(readConflictCycles(one_bank, {0, 1, 2, 3, 4}), 3);
}

TEST(Conflict, SinglePortSram)
{
    const BufferSpec s = spec(16, 8, 16, 1);
    EXPECT_EQ(readConflictCycles(s, {0, 1}), 2);
    EXPECT_EQ(readConflictCycles(s, {0, 1, 2, 3}), 4);
}

TEST(Scratchpad, ReadWrite)
{
    Scratchpad<int32_t> sp(spec(4, 4, 2));
    sp.write(1, 2, 77);
    EXPECT_EQ(sp.read(1, 2), 77);
    EXPECT_EQ(sp.peek(1, 2), 77);
    EXPECT_EQ(sp.stats().word_writes, 1);
    EXPECT_EQ(sp.stats().word_reads, 1);
}

TEST(Scratchpad, ChargeReadAccessTracksStalls)
{
    Scratchpad<int32_t> sp(spec(8, 4, 8));
    EXPECT_EQ(sp.chargeReadAccess({0, 1}), 1);
    EXPECT_EQ(sp.stats().conflict_stall_cycles, 0);
    EXPECT_EQ(sp.chargeReadAccess({0, 1, 2, 3}), 2);
    EXPECT_EQ(sp.stats().conflict_stall_cycles, 1);
    EXPECT_EQ(sp.stats().line_reads, 6);
}

TEST(BankedScratchpad, PerBankAddressing)
{
    BankedScratchpad<int8_t> stab(4, 8);
    // Different addresses in different banks — the property RIR relies on.
    stab.write(0, 3, 10);
    stab.write(1, 5, 20);
    stab.write(2, 0, 30);
    EXPECT_EQ(stab.peek(0, 3), 10);
    EXPECT_EQ(stab.peek(1, 5), 20);
    EXPECT_EQ(stab.peek(2, 0), 30);
    EXPECT_EQ(stab.numBanks(), 4);
    EXPECT_EQ(stab.depth(), 8);
}

TEST(BankedScratchpad, LoadWithLayout)
{
    // Load a tiny CHW tensor channel-last and check physical placement:
    // slot (bank) = c, line (addr) = h*W + w.
    Extents ext;
    ext[Dim::C] = 4;
    ext[Dim::H] = 2;
    ext[Dim::W] = 2;
    const BoundLayout bl(Layout::parse("HWC_C4"), ext);

    BankedScratchpad<int8_t> stab(4, 8);
    stab.loadWithLayout(bl, [](const Coord &c) {
        return int8_t(c[Dim::C] * 16 + c[Dim::H] * 4 + c[Dim::W]);
    });
    for (int64_t c = 0; c < 4; ++c) {
        for (int64_t h = 0; h < 2; ++h) {
            for (int64_t w = 0; w < 2; ++w) {
                EXPECT_EQ(stab.peek(c, h * 2 + w), c * 16 + h * 4 + w);
            }
        }
    }
}

TEST(BankedScratchpad, UnwrittenLinesReadAsTheFillValue)
{
    BankedScratchpad<int8_t> stab(4, 1024, int8_t(-7));
    EXPECT_EQ(stab.storedWords(), 0u);
    EXPECT_EQ(stab.read(2, 500), -7);
    EXPECT_EQ(stab.peek(3, 1023), -7);
    stab.write(0, 3, 5);
    EXPECT_EQ(stab.peek(0, 3), 5);
    EXPECT_EQ(stab.peek(1, 3), -7); // same line, another bank
    EXPECT_EQ(stab.peek(0, 2), -7); // stored but never written
    EXPECT_EQ(stab.read(0, 900), -7); // past the stored lines
    int8_t burst[3] = {0, 0, 0};
    stab.peekRange(2, 700, burst, 3);
    EXPECT_EQ(burst[0], -7);
    EXPECT_EQ(burst[2], -7);
}

TEST(BankedScratchpad, DepthIsTheCapacity)
{
    BankedScratchpad<int8_t> stab(4, 100);
    stab.write(3, 99, 1); // the last line of a non-power-of-two depth
    EXPECT_EQ(stab.peek(3, 99), 1);
    EXPECT_EQ(stab.storedWords(), 100u * 4u) << "capped at the depth";
    EXPECT_DEATH(stab.write(0, 100, 1), "addr 100 out of range");
    const int8_t two[2] = {1, 2};
    EXPECT_DEATH(stab.writeRange(0, 99, two, 2), "addr 100 out of range");
}

TEST(BankedScratchpad, RangesRoundTripAcrossBanks)
{
    BankedScratchpad<int8_t> stab(4, 64);
    // Each bank gets its own run at its own address; runs in neighbouring
    // banks share lines and must not clobber each other.
    for (int64_t bank = 0; bank < 4; ++bank) {
        std::vector<int8_t> run(size_t(5 + bank));
        for (size_t j = 0; j < run.size(); ++j) {
            run[j] = int8_t(bank * 32 + int64_t(j));
        }
        stab.writeRange(bank, 2 + bank, run.data(), int64_t(run.size()));
    }
    EXPECT_EQ(stab.stats().word_writes, 5 + 6 + 7 + 8);
    for (int64_t bank = 0; bank < 4; ++bank) {
        std::vector<int8_t> back(size_t(5 + bank), -1);
        stab.peekRange(bank, 2 + bank, back.data(), int64_t(back.size()));
        for (size_t j = 0; j < back.size(); ++j) {
            EXPECT_EQ(back[j], int8_t(bank * 32 + int64_t(j)));
            EXPECT_EQ(stab.peek(bank, 2 + bank + int64_t(j)), back[j]);
        }
        EXPECT_EQ(stab.peek(bank, 1 + bank), 0) << "before the run";
    }
}

TEST(BankedScratchpad, StorageFollowsTheHighestLineWritten)
{
    const int64_t banks = 8;
    BankedScratchpad<int8_t> stab(banks, int64_t(1) << 20);
    for (const int64_t addr : {int64_t(0), int64_t(5), int64_t(6),
                               int64_t(1000), int64_t(4096)}) {
        stab.write(1, addr, 1);
        // Lines touched (addr + 1), rounded up by doubling, times banks.
        EXPECT_LE(stab.storedWords(),
                  size_t(nextPow2(uint64_t(addr + 1)) * uint64_t(banks)))
            << addr;
        EXPECT_GE(stab.storedWords(), size_t((addr + 1) * banks)) << addr;
    }
    EXPECT_LT(stab.storedWords(), size_t(stab.depth() * banks) / 64);
}

TEST(PingPong, SwapRoles)
{
    PingPong<Scratchpad<int8_t>> pp(Scratchpad<int8_t>(spec(2, 2, 2)),
                                    Scratchpad<int8_t>(spec(2, 2, 2)));
    pp.ping().write(0, 0, 1);
    pp.pong().write(0, 0, 2);
    EXPECT_EQ(pp.ping().peek(0, 0), 1);
    pp.swap();
    EXPECT_EQ(pp.ping().peek(0, 0), 2);
    EXPECT_EQ(pp.pong().peek(0, 0), 1);
    pp.swap();
    EXPECT_EQ(pp.ping().peek(0, 0), 1);
}

} // namespace
} // namespace feather
