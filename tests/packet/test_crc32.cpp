#include "packet/crc32.hpp"

#include <gtest/gtest.h>

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

TEST(Crc32k, IncrementalMatchesOneShot) {
  SplitMix64 rng(42);
  std::vector<u8> data(137);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  // Split at every offset, so both halves start on and off 8-byte
  // boundaries and end with every possible byte remainder.
  for (usize split = 0; split <= data.size(); ++split) {
    u32 state = init();
    state = update(state, {data.data(), split});
    state = update(state, {data.data() + split, data.size() - split});
    EXPECT_EQ(finish(state), crc32k(data)) << "split " << split;
  }
}

TEST(Crc32k, WordsMatchesBitwiseReference) {
  // The word fold against the independent bit-serial oracle, at every word
  // count a packet can have (0..18).
  SplitMix64 rng(0x6b6f6f70);
  for (usize count = 0; count <= 18; ++count) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<u64> words(count);
      for (auto& w : words) w = rng.next();
      ASSERT_EQ(crc32k_words(words), crc32k_reference(le_bytes_of(words)))
          << "count " << count << " trial " << trial;
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
  const std::vector<u64> words = {0x0123456789abcdefull, 0xfedcba9876543210ull,
                                  0x0000000000000001ull};
  EXPECT_EQ(crc32k_words(words), crc32k(le_bytes_of(words)));
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
