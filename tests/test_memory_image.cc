/**
 * @file
 * Unit tests: sparse memory image.
 */

#include <gtest/gtest.h>

#include "func/memory_image.hh"
#include "prog/builder.hh"

using namespace svw;

TEST(MemoryImage, UnwrittenReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.read(0xffff'ffff'0000ull, 4), 0u);
    EXPECT_EQ(m.pageCount(), 0u);  // reads do not allocate
}

TEST(MemoryImage, WriteReadAllSizes)
{
    MemoryImage m;
    m.write(0x100, 8, 0x8877665544332211ull);
    EXPECT_EQ(m.read(0x100, 8), 0x8877665544332211ull);
    EXPECT_EQ(m.read(0x100, 4), 0x44332211u);
    EXPECT_EQ(m.read(0x104, 4), 0x88776655u);
    EXPECT_EQ(m.read(0x100, 2), 0x2211u);
    EXPECT_EQ(m.read(0x107, 1), 0x88u);
}

TEST(MemoryImage, LittleEndianByteOrder)
{
    MemoryImage m;
    m.write(0x200, 4, 0x0a0b0c0d);
    EXPECT_EQ(m.read(0x200, 1), 0x0du);
    EXPECT_EQ(m.read(0x203, 1), 0x0au);
}

TEST(MemoryImage, PartialOverwrite)
{
    MemoryImage m;
    m.write(0x300, 8, ~0ull);
    m.write(0x302, 2, 0);
    EXPECT_EQ(m.read(0x300, 8), 0xffffffff0000ffffull);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage m;
    const Addr a = MemoryImage::pageBytes - 4;
    m.write(a, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(a, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(MemoryImage::pageBytes, 4), 0x11223344u);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(MemoryImage, BadSizePanics)
{
    MemoryImage m;
    EXPECT_THROW(m.read(0, 3), std::logic_error);
    EXPECT_THROW(m.write(0, 5, 0), std::logic_error);
}

TEST(MemoryImage, BytesRoundTrip)
{
    MemoryImage m;
    std::uint8_t out[16], in[16];
    for (int i = 0; i < 16; ++i)
        out[i] = static_cast<std::uint8_t>(i * 7);
    m.writeBytes(0x4ffa, out, 16);  // crosses a page
    m.readBytes(0x4ffa, in, 16);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(in[i], out[i]);
}

TEST(MemoryImage, IdenticalToSelfAndCopies)
{
    MemoryImage a, b;
    EXPECT_TRUE(a.identicalTo(b));
    a.write(0x100, 8, 42);
    EXPECT_FALSE(a.identicalTo(b));
    b.write(0x100, 8, 42);
    EXPECT_TRUE(a.identicalTo(b));
}

TEST(MemoryImage, IdenticalTreatsZeroPagesAsAbsent)
{
    MemoryImage a, b;
    a.write(0x100, 8, 0);  // allocates a page of zeros
    EXPECT_TRUE(a.identicalTo(b));
    EXPECT_TRUE(b.identicalTo(a));
}

TEST(MemoryImage, ClearDropsEverything)
{
    MemoryImage m;
    m.write(0x100, 8, 7);
    m.clear();
    EXPECT_EQ(m.read(0x100, 8), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(MemoryImage, LoadProgramAppliesSegments)
{
    ProgramBuilder b("t");
    Addr a = b.allocWords({11, 22});
    Addr c = b.allocBytes({0xaa, 0xbb});
    b.halt();
    Program p = b.finish();
    MemoryImage m;
    m.loadProgram(p);
    EXPECT_EQ(m.read(a, 8), 11u);
    EXPECT_EQ(m.read(a + 8, 8), 22u);
    EXPECT_EQ(m.read(c, 1), 0xaau);
    EXPECT_EQ(m.read(c + 1, 1), 0xbbu);
}
