#include "packet/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"

namespace hmcsim::crc {
namespace {

std::vector<u8> bytes_of(const std::string& s) {
  return std::vector<u8>(s.begin(), s.end());
}

std::vector<u8> le_bytes_of(const std::vector<u64>& words) {
  std::vector<u8> bytes;
  for (const u64 w : words) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<u8>((w >> (8 * i)) & 0xff));
    }
  }
  return bytes;
}

TEST(Crc32k, PolynomialForms) {
  // The reflected form is the bit-reversal of the normal Koopman polynomial.
  u32 reversed = 0;
  for (int i = 0; i < 32; ++i) {
    reversed |= ((kPolyKoopman >> i) & 1u) << (31 - i);
  }
  EXPECT_EQ(reversed, kPolyKoopmanReflected);
}

TEST(Crc32k, EmptyInput) {
  // init ^ final-xor with no data folds to zero.
  EXPECT_EQ(crc32k({}), 0u);
}

TEST(Crc32k, TableMatchesBitwiseReference) {
  SplitMix64 rng(0xc0ffee);
  for (int len = 0; len < 200; ++len) {
    std::vector<u8> data(static_cast<usize>(len));
    for (auto& b : data) b = static_cast<u8>(rng.next());
    ASSERT_EQ(crc32k(data), crc32k_reference(data)) << "len " << len;
  }
}

/// Both engines where this host runs both; slicing-by-8 alone otherwise.
std::vector<const Engine*> engines() {
  std::vector<const Engine*> all = {&slicing_by_8()};
  if (const Engine* clmul = carry_less()) all.push_back(clmul);
  return all;
}

TEST(Crc32k, EveryEngineMatchesTheReference) {
  // Every length 0..300 from every start offset 0..15, so each engine sees
  // every block count, every byte tail and every alignment.
  SplitMix64 rng(0x50434c4d);
  std::vector<u8> data(16 + 300);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (usize offset = 0; offset < 16; ++offset) {
    for (usize len = 0; len <= 300; ++len) {
      const std::span<const u8> bytes{data.data() + offset, len};
      const u32 ref = crc32k_reference(bytes);
      for (const Engine* e : engines()) {
        ASSERT_EQ(e->bytes(bytes), ref)
            << e->name << " offset " << offset << " len " << len;
      }
    }
  }
  std::vector<u8> mib(usize{1} << 20);
  for (auto& b : mib) b = static_cast<u8>(rng.next());
  const u32 ref = crc32k_reference(mib);
  for (const Engine* e : engines()) EXPECT_EQ(e->bytes(mib), ref) << e->name;
  if (carry_less() == nullptr) {
    GTEST_SKIP() << "the carry-less engine is not built for this target or "
                    "this CPU lacks PCLMULQDQ/SSE4.1; only slicing-by-8 "
                    "was checked";
  }
}

TEST(Crc32k, WordsMatchesBitwiseReference) {
  // Each engine's packet entry against the independent bit-serial oracle,
  // at every word count a packet can have (2..18), with garbage in the
  // CRC field the packet CRC reads as zero.
  SplitMix64 rng(0x6b6f6f70);
  for (usize count = 2; count <= 18; count += 2) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<u64> words(count);
      for (auto& w : words) w = rng.next();
      words.back() |= u64{1} << 63;
      std::vector<u8> image = le_bytes_of(words);
      std::fill(image.end() - 4, image.end(), u8{0});
      for (const Engine* e : engines()) {
        ASSERT_EQ(e->packet(words), crc32k_reference(image))
            << e->name << " count " << count << " trial " << trial;
      }
    }
  }
}

TEST(Crc32k, SingleBitFlipChangesCrc) {
  std::vector<u8> data = bytes_of("hybrid memory cube");
  const u32 base = crc32k(data);
  for (usize i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<u8>(1u << bit);
      EXPECT_NE(crc32k(data), base) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<u8>(1u << bit);
    }
  }
}

TEST(Crc32k, DetectsAdjacentSwaps) {
  std::vector<u8> data = bytes_of("0123456789abcdef");
  const u32 base = crc32k(data);
  for (usize i = 0; i + 1 < data.size(); ++i) {
    if (data[i] == data[i + 1]) continue;
    std::swap(data[i], data[i + 1]);
    EXPECT_NE(crc32k(data), base) << "swap at " << i;
    std::swap(data[i], data[i + 1]);
  }
}

TEST(Crc32k, WordsMatchesBytesLittleEndian) {
  // An engine's packet entry equals its byte entry over the same words,
  // read little-endian, with the CRC field zeroed.
  const std::vector<u64> words = {0x0123456789abcdefull, 0xfedcba9876543210ull,
                                  0x0000000000000001ull, 0x00000000deadbeefull};
  const std::vector<u8> bytes = le_bytes_of(words);
  for (const Engine* e : engines()) {
    EXPECT_EQ(e->packet(words), e->bytes(bytes)) << e->name;
  }
}

TEST(Crc32k, Deterministic) {
  const std::vector<u8> data = bytes_of("deterministic");
  EXPECT_EQ(crc32k(data), crc32k(data));
}

TEST(Crc32k, DistributionSanity) {
  // CRCs of consecutive integers should not collide in a small sample.
  std::vector<u32> seen;
  for (u32 i = 0; i < 1000; ++i) {
    u8 bytes[4] = {static_cast<u8>(i), static_cast<u8>(i >> 8),
                   static_cast<u8>(i >> 16), static_cast<u8>(i >> 24)};
    seen.push_back(crc32k(bytes));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace hmcsim::crc
