// Unit tests for net::PayloadBuffer, the small-buffer payload type behind
// net::Packet. The inline/heap boundary, vector-parity zero-fill on
// resize, and move semantics are all load-bearing for the allocation-free
// forwarding path.
#include "net/payload.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <utility>

namespace netrs::net {
namespace {

TEST(PayloadBufferTest, DefaultIsEmptyAndInline) {
  PayloadBuffer p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.is_inline());
  EXPECT_EQ(p.capacity(), PayloadBuffer::kInlineCapacity);
}

TEST(PayloadBufferTest, SizedConstructorZeroFills) {
  PayloadBuffer p(42);
  ASSERT_EQ(p.size(), 42u);
  EXPECT_TRUE(p.is_inline());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(p[i], std::byte{0}) << "byte " << i;
  }
}

TEST(PayloadBufferTest, ResizeZeroFillsNewBytesLikeVector) {
  PayloadBuffer p;
  p.resize(8);
  p.assign(8, std::byte{0xFF});
  p.resize(4);   // shrink: keeps the first 4 bytes
  p.resize(16);  // regrow: bytes 4..15 must be zero, not stale 0xFF
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p[i], std::byte{0xFF});
  for (std::size_t i = 4; i < 16; ++i) EXPECT_EQ(p[i], std::byte{0});
}

TEST(PayloadBufferTest, StaysInlineUpToInlineCapacity) {
  PayloadBuffer p(PayloadBuffer::kInlineCapacity);
  EXPECT_TRUE(p.is_inline());
}

TEST(PayloadBufferTest, SpillsToHeapBeyondInlineCapacity) {
  PayloadBuffer p(PayloadBuffer::kInlineCapacity);
  p.assign(PayloadBuffer::kInlineCapacity, std::byte{0xAB});
  p.resize(PayloadBuffer::kInlineCapacity + 1);
  EXPECT_FALSE(p.is_inline());
  // Contents survive the spill.
  for (std::size_t i = 0; i < PayloadBuffer::kInlineCapacity; ++i) {
    EXPECT_EQ(p[i], std::byte{0xAB}) << "byte " << i;
  }
  EXPECT_EQ(p[PayloadBuffer::kInlineCapacity], std::byte{0});
}

TEST(PayloadBufferTest, ShrinkNeverReleasesCapacity) {
  PayloadBuffer p(200);
  const std::size_t cap = p.capacity();
  EXPECT_GE(cap, 200u);
  p.resize(2);
  EXPECT_EQ(p.capacity(), cap);
  EXPECT_FALSE(p.is_inline());  // heap block kept warm for reuse
}

TEST(PayloadBufferTest, CopyIsDeep) {
  PayloadBuffer a(10);
  a.assign(10, std::byte{7});
  PayloadBuffer b(a);
  b[0] = std::byte{9};
  EXPECT_EQ(a[0], std::byte{7});
  EXPECT_EQ(b[0], std::byte{9});
  EXPECT_EQ(a.size(), b.size());
}

TEST(PayloadBufferTest, MoveOfInlineBufferCopiesBytes) {
  PayloadBuffer a(10);
  a.assign(10, std::byte{5});
  PayloadBuffer b(std::move(a));
  ASSERT_EQ(b.size(), 10u);
  EXPECT_TRUE(b.is_inline());
  EXPECT_EQ(b[9], std::byte{5});
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): spec'd state
}

TEST(PayloadBufferTest, MoveOfHeapBufferStealsPointer) {
  PayloadBuffer a(300);
  a.assign(300, std::byte{3});
  const std::byte* block = a.data();
  PayloadBuffer b(std::move(a));
  EXPECT_EQ(b.data(), block);  // no copy, no allocation
  EXPECT_EQ(b.size(), 300u);
  EXPECT_TRUE(a.is_inline());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
}

TEST(PayloadBufferTest, MoveAssignReleasesPreviousHeapBlock) {
  PayloadBuffer a(300);
  PayloadBuffer b(400);
  b = std::move(a);  // must free b's old block (ASan would catch a leak)
  EXPECT_EQ(b.size(), 300u);
}

TEST(PayloadBufferTest, EqualityComparesContents) {
  PayloadBuffer a(5);
  PayloadBuffer b(5);
  EXPECT_EQ(a, b);
  b[2] = std::byte{1};
  EXPECT_NE(a, b);
  PayloadBuffer c(6);
  EXPECT_NE(a, c);
}

TEST(PayloadBufferTest, SpanConversionsSeeLiveBytes) {
  PayloadBuffer p(4);
  p[1] = std::byte{0x11};
  std::span<const std::byte> ro = p;
  ASSERT_EQ(ro.size(), 4u);
  EXPECT_EQ(ro[1], std::byte{0x11});
  std::span<std::byte> rw = p;
  rw[2] = std::byte{0x22};
  EXPECT_EQ(p[2], std::byte{0x22});
}

TEST(PayloadBufferTest, ClearKeepsCapacity) {
  PayloadBuffer p(100);
  const std::size_t cap = p.capacity();
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.capacity(), cap);
}

// Cases for the pointer-free layout: the bytes live inline while no heap
// block is owned, so a move copies the inline bytes and steals the block.

TEST(PayloadBufferTest, MovedFromBufferIsEmptyInlineWithInlineCapacity) {
  for (const std::size_t n : {std::size_t{30}, std::size_t{100}}) {
    PayloadBuffer a(n);
    PayloadBuffer b(std::move(a));
    // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is spec'd.
    EXPECT_TRUE(a.empty()) << n;
    EXPECT_TRUE(a.is_inline()) << n;
    EXPECT_EQ(a.capacity(), PayloadBuffer::kInlineCapacity) << n;
    PayloadBuffer c;
    c = std::move(b);
    EXPECT_TRUE(b.empty()) << n;
    EXPECT_TRUE(b.is_inline()) << n;
    EXPECT_EQ(b.capacity(), PayloadBuffer::kInlineCapacity) << n;
    // NOLINTEND(bugprone-use-after-move)
    EXPECT_EQ(c.size(), n);
  }
}

TEST(PayloadBufferTest, MoveStealsHeapBlockAndSourceIsReusable) {
  PayloadBuffer a(100);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::byte(i);
  const std::byte* block = a.data();
  const std::size_t cap = a.capacity();
  PayloadBuffer b;
  b = std::move(a);
  EXPECT_EQ(b.data(), block);
  EXPECT_EQ(b.capacity(), cap);
  ASSERT_EQ(b.size(), 100u);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], std::byte(i)) << "byte " << i;
  }
  // The source holds nothing of b's block and works as a fresh buffer,
  // inline and spilled again.
  a.assign(20, std::byte{0x5A});  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.is_inline());
  EXPECT_NE(a.data(), block);
  a.resize(90);
  EXPECT_FALSE(a.is_inline());
  EXPECT_NE(a.data(), block);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(a[i], std::byte{0x5A});
  for (std::size_t i = 20; i < 90; ++i) EXPECT_EQ(a[i], std::byte{0});
  EXPECT_EQ(b[99], std::byte(99));  // b is untouched by a's reuse
}

TEST(PayloadBufferTest, MoveAssignOverSpilledBufferFreesOldBlock) {
  // Inline source over a spilled target: the target's block must be
  // freed (the sanitizer build reports a leak otherwise) and the target
  // becomes inline.
  PayloadBuffer inline_src(12);
  inline_src.assign(12, std::byte{0x21});
  PayloadBuffer target(500);
  target = std::move(inline_src);
  EXPECT_TRUE(target.is_inline());
  EXPECT_EQ(target.capacity(), PayloadBuffer::kInlineCapacity);
  ASSERT_EQ(target.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(target[i], std::byte{0x21});

  // Spilled source over a spilled target: the target takes the source's
  // block and frees its own.
  PayloadBuffer spilled_src(300);
  const std::byte* block = spilled_src.data();
  PayloadBuffer target2(700);
  target2 = std::move(spilled_src);
  EXPECT_EQ(target2.data(), block);
  EXPECT_EQ(target2.size(), 300u);
}

TEST(PayloadBufferTest, CopySpilledToInline) {
  // A spilled source whose bytes fit inline copies into an inline buffer.
  PayloadBuffer src(100);
  src.resize(10);
  for (std::size_t i = 0; i < 10; ++i) src[i] = std::byte(0x40 + i);
  ASSERT_FALSE(src.is_inline());
  PayloadBuffer constructed(src);
  EXPECT_TRUE(constructed.is_inline());
  EXPECT_EQ(constructed, src);
  PayloadBuffer assigned(3);
  assigned = src;
  EXPECT_TRUE(assigned.is_inline());
  EXPECT_EQ(assigned, src);
  // A spilled source too big to fit inline copies into a fresh block.
  src.resize(100);
  PayloadBuffer big(src);
  EXPECT_FALSE(big.is_inline());
  EXPECT_NE(big.data(), src.data());
  EXPECT_EQ(big, src);
}

TEST(PayloadBufferTest, CopyInlineToSpilled) {
  // Copy-assigning an inline source reuses the target's heap block.
  PayloadBuffer src(16);
  src.assign(16, std::byte{0x66});
  PayloadBuffer target(200);
  const std::byte* block = target.data();
  const std::size_t cap = target.capacity();
  target = src;
  EXPECT_EQ(target.data(), block);
  EXPECT_EQ(target.capacity(), cap);
  EXPECT_EQ(target, src);
  EXPECT_TRUE(src.is_inline());
  // The copies are independent.
  target[0] = std::byte{0x01};
  EXPECT_EQ(src[0], std::byte{0x66});
}

TEST(PayloadBufferTest, SelfMoveAssignmentKeepsContents) {
  for (const std::size_t n : {std::size_t{30}, std::size_t{100}}) {
    PayloadBuffer p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = std::byte(i + 1);
    const std::byte* data = p.data();
    PayloadBuffer& alias = p;  // defeats -Wself-move
    p = std::move(alias);
    ASSERT_EQ(p.size(), n);
    EXPECT_EQ(p.data(), data);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(p[i], std::byte(i + 1)) << "byte " << i;
    }
  }
}

TEST(PayloadBufferTest, SelfCopyAssignmentKeepsContents) {
  PayloadBuffer p(100);
  p.assign(100, std::byte{0x33});
  PayloadBuffer& alias = p;
  p = alias;
  ASSERT_EQ(p.size(), 100u);
  EXPECT_EQ(p[99], std::byte{0x33});
}

}  // namespace
}  // namespace netrs::net
