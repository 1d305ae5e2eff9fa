#include "packet/crc32.hpp"

#include <array>

namespace hmcsim::crc {
namespace {

using Tables = std::array<std::array<u32, 256>, 8>;

/// Slicing-by-8 tables for the reflected Koopman polynomial, built at
/// compile time.  kTables[0][b] is the CRC step for byte b; kTables[k][b]
/// is that step followed by k zero bytes, so one lookup per byte of a
/// 64-bit word, XORed together, advances the state by all eight bytes.
constexpr Tables make_tables() {
  Tables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (c >> 1) ^ kPolyKoopmanReflected : (c >> 1);
    }
    t[0][i] = c;
  }
  for (usize k = 1; k < t.size(); ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

u32 fold_byte(u32 state, u8 b) {
  return kTables[0][(state ^ b) & 0xffu] ^ (state >> 8);
}

/// Advance the state by the eight little-endian bytes of `w`.
u32 fold_word(u32 state, u64 w) {
  const u64 x = w ^ state;
  return kTables[7][x & 0xffu] ^ kTables[6][(x >> 8) & 0xffu] ^
         kTables[5][(x >> 16) & 0xffu] ^ kTables[4][(x >> 24) & 0xffu] ^
         kTables[3][(x >> 32) & 0xffu] ^ kTables[2][(x >> 40) & 0xffu] ^
         kTables[1][(x >> 48) & 0xffu] ^ kTables[0][x >> 56];
}

}  // namespace

u32 init() { return 0xffffffffu; }

u32 update(u32 state, std::span<const u8> bytes) {
  usize i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    u64 w = 0;
    for (usize j = 0; j < 8; ++j) w |= u64{bytes[i + j]} << (8 * j);
    state = fold_word(state, w);
  }
  for (; i < bytes.size(); ++i) state = fold_byte(state, bytes[i]);
  return state;
}

u32 update_words(u32 state, std::span<const u64> words) {
  for (const u64 w : words) state = fold_word(state, w);
  return state;
}

u32 finish(u32 state) { return state ^ 0xffffffffu; }

u32 crc32k(std::span<const u8> bytes) {
  return finish(update(init(), bytes));
}

u32 crc32k_reference(std::span<const u8> bytes) {
  u32 state = 0xffffffffu;
  for (const u8 b : bytes) {
    state ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ kPolyKoopmanReflected
                           : (state >> 1);
    }
  }
  return state ^ 0xffffffffu;
}

u32 crc32k_words(std::span<const u64> words) {
  return finish(update_words(init(), words));
}

}  // namespace hmcsim::crc
