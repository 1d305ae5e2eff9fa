#include "packet/crc32.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HMCSIM_CRC_CARRY_LESS 1
#include <cpuid.h>
#include <immintrin.h>
// Only the carry-less engine's functions are compiled for these features;
// the build targets the baseline ISA, and CPUID decides at run time.
#define HMCSIM_CARRY_LESS_TARGET __attribute__((target("pclmul,sse4.1")))
#else
#define HMCSIM_CRC_CARRY_LESS 0
#endif

namespace hmcsim::crc {
namespace {

constexpr u32 kInit = 0xffffffffu;

// ---------------------------------------------------------------------------
// Slicing-by-8.
// ---------------------------------------------------------------------------

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

/// Advance the state by `bytes`: whole words, then the byte remainder.
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

u32 bytes_slicing(std::span<const u8> bytes) { return ~update(kInit, bytes); }

u32 packet_slicing(std::span<const u64> words) {
  u32 state = kInit;
  for (usize i = 0; i + 1 < words.size(); ++i) {
    state = fold_word(state, words[i]);
  }
  return ~fold_word(state, words.back() & 0xffffffffu);
}

// ---------------------------------------------------------------------------
// Carry-less multiply.
// ---------------------------------------------------------------------------

/// x^n mod P for the normal-form polynomial `poly` (x^32 implied).
constexpr u32 xpow_mod(u32 poly, u32 n) {
  u32 r = 1;
  for (u32 i = 0; i < n; ++i) {
    r = (r << 1) ^ ((r & 0x80000000u) != 0 ? poly : 0);
  }
  return r;
}

constexpr u64 reflect(u64 v, int bits) {
  u64 r = 0;
  for (int i = 0; i < bits; ++i) r |= ((v >> i) & 1u) << (bits - 1 - i);
  return r;
}

/// x^n mod P in the form a reflected carry-less product takes it.
constexpr u64 fold_constant(u32 poly, u32 n) {
  return reflect(xpow_mod(poly, n), 32) << 1;
}

/// floor(x^64 / P), the Barrett quotient, degree 32.
constexpr u64 barrett_quotient(u32 poly) {
  u64 q = u64{1} << 32;
  u64 r = u64{poly} << 32;  // x^64 - x^32 * P
  for (int i = 63; i >= 32; --i) {
    if (((r >> i) & 1u) != 0) {
      q |= u64{1} << (i - 32);
      r ^= (u64{1} << i) ^ (u64{poly} << (i - 32));
    }
  }
  return q;
}

/// Barrett's pair: P itself and the quotient, both reflected over 33 bits.
constexpr u64 barrett_poly(u32 poly) { return reflect(poly, 32) << 1 | 1; }
constexpr u64 barrett_mu(u32 poly) {
  return reflect(barrett_quotient(poly), 33);
}

// The same formulas give the IEEE 802.3 constants Gopal et al. publish.
constexpr u32 kPolyIeee = 0x04c11db7u;
static_assert(fold_constant(kPolyIeee, 4 * 128 + 32) == 0x154442bd4u);
static_assert(fold_constant(kPolyIeee, 4 * 128 - 32) == 0x1c6e41596u);
static_assert(fold_constant(kPolyIeee, 128 + 32) == 0x1751997d0u);
static_assert(fold_constant(kPolyIeee, 128 - 32) == 0x0ccaa009eu);
static_assert(fold_constant(kPolyIeee, 64) == 0x163cd6124u);
static_assert(barrett_poly(kPolyIeee) == 0x1db710641u);
static_assert(barrett_mu(kPolyIeee) == 0x1f7011641u);

#if HMCSIM_CRC_CARRY_LESS

/// The most 16-byte blocks the fold multiplies at once: a 9-FLIT packet.
constexpr usize kMaxBlocks = 9;

/// The pair that moves a block d blocks toward the end: its low half (the
/// earlier bytes) times x^(128d+32), its high half times x^(128d-32).
struct FoldPair {
  u64 lo;
  u64 hi;
};

constexpr std::array<FoldPair, kMaxBlocks> make_fold_pairs() {
  std::array<FoldPair, kMaxBlocks> t{};
  for (u32 d = 1; d < kMaxBlocks; ++d) {
    t[d] = {fold_constant(kPolyKoopman, 128 * d + 32),
            fold_constant(kPolyKoopman, 128 * d - 32)};
  }
  return t;
}

constexpr std::array<FoldPair, kMaxBlocks> kFoldPairs = make_fold_pairs();
constexpr u64 kX96 = kFoldPairs[1].hi;
constexpr u64 kX64 = fold_constant(kPolyKoopman, 64);
constexpr u64 kBarrettPoly = barrett_poly(kPolyKoopman);
constexpr u64 kBarrettMu = barrett_mu(kPolyKoopman);

/// CPUID is read once per process, on first use: leaf 1's ECX carries
/// PCLMULQDQ (bit 1) and SSE4.1 (bit 19).
bool host_has_carry_less() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ecx & (1u << 1)) != 0 && (ecx & (1u << 19)) != 0;
  }();
  return has;
}

/// The hot paths' copy, set at static initialization: a CRC taken before
/// that reads false and runs slicing-by-8, which computes the same value.
const bool kCarryLess = host_has_carry_less();

/// The smallest packet, in 64-bit words, the carry-less engine serves: at
/// one FLIT slicing-by-8 measures faster (bench_packets' BM_PacketCrc).
constexpr usize kCarryLessMinPacketWords = 4;

HMCSIM_CARRY_LESS_TARGET inline __m128i load(const void* p) {
  return _mm_loadu_si128(static_cast<const __m128i*>(p));
}

HMCSIM_CARRY_LESS_TARGET inline __m128i set(u64 hi, u64 lo) {
  return _mm_set_epi64x(static_cast<long long>(hi),
                        static_cast<long long>(lo));
}

/// `x` moved `d` blocks toward the end: a value of at most 97 bits with
/// the same CRC contribution there.
HMCSIM_CARRY_LESS_TARGET inline __m128i fold(__m128i x, usize d) {
  const __m128i k = load(&kFoldPairs[d]);
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Blocks b[0..n) folded onto the last one: n - 1 independent products.
HMCSIM_CARRY_LESS_TARGET inline __m128i fold_onto_last(const __m128i* b,
                                                       usize n) {
  __m128i acc = b[n - 1];
  for (usize i = 0; i + 1 < n; ++i) {
    acc = _mm_xor_si128(acc, fold(b[i], n - 1 - i));
  }
  return acc;
}

/// The CRC state of a stream that ends in the 128-bit block `x`:
/// 128 -> 96 -> 64 bits by multiplication, then Barrett to 32.
HMCSIM_CARRY_LESS_TARGET inline u32 reduce(__m128i x) {
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i t = _mm_clmulepi64_si128(x, set(0, kX96), 0x00);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), t);
  t = _mm_srli_si128(x, 4);
  x = _mm_clmulepi64_si128(_mm_and_si128(x, low32), set(0, kX64), 0x00);
  x = _mm_xor_si128(x, t);
  const __m128i barrett = set(kBarrettMu, kBarrettPoly);
  t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

/// The first block carries the init XOR, the last one the CRC-field mask;
/// every block before the last is folded straight onto it.
HMCSIM_CARRY_LESS_TARGET u32 packet_carry_less(std::span<const u64> words) {
  const usize last = words.size() / 2 - 1;
  const u64* w = words.data();
  const __m128i first = _mm_xor_si128(load(w), _mm_cvtsi32_si128(-1));
  const __m128i crc_field_zero = _mm_setr_epi32(-1, -1, -1, 0);
  if (last == 0) return ~reduce(_mm_and_si128(first, crc_field_zero));
  __m128i acc = _mm_and_si128(load(w + 2 * last), crc_field_zero);
  acc = _mm_xor_si128(acc, fold(first, last));
  for (usize i = 1; i < last; ++i) {
    acc = _mm_xor_si128(acc, fold(load(w + 2 * i), last - i));
  }
  return ~reduce(acc);
}

/// Whole 16-byte blocks through a four-way fold, the byte tail through
/// slicing-by-8.
HMCSIM_CARRY_LESS_TARGET u32 bytes_carry_less(std::span<const u8> bytes) {
  constexpr usize kLanes = 4;
  const usize n = bytes.size() / 16;
  const u8* p = bytes.data();
  u32 state = kInit;
  if (n != 0) {
    // At most kLanes lanes plus kLanes - 1 trailing blocks, or fewer than
    // 2 * kLanes blocks in all, are left to fold onto the last.
    __m128i b[2 * kLanes - 1];
    b[0] = _mm_xor_si128(load(p), _mm_cvtsi32_si128(-1));
    usize m = 1;
    usize i = 1;
    if (n >= 2 * kLanes) {
      for (; m < kLanes; ++m, ++i) b[m] = load(p + 16 * i);
      for (; i + kLanes <= n; i += kLanes) {
        for (usize j = 0; j < kLanes; ++j) {
          b[j] = _mm_xor_si128(fold(b[j], kLanes), load(p + 16 * (i + j)));
        }
      }
    }
    for (; i < n; ++i) b[m++] = load(p + 16 * i);
    state = reduce(fold_onto_last(b, m));
  }
  return ~update(state, bytes.subspan(16 * n));
}

const Engine kCarryLessEngine{"carry-less", bytes_carry_less,
                              packet_carry_less};

#endif  // HMCSIM_CRC_CARRY_LESS

const Engine kSlicingEngine{"slicing-by-8", bytes_slicing, packet_slicing};

}  // namespace

u32 crc32k(std::span<const u8> bytes) {
#if HMCSIM_CRC_CARRY_LESS
  if (kCarryLess) return bytes_carry_less(bytes);
#endif
  return bytes_slicing(bytes);
}

u32 crc32k_packet(std::span<const u64> words) {
#if HMCSIM_CRC_CARRY_LESS
  if (kCarryLess && words.size() >= kCarryLessMinPacketWords) {
    return packet_carry_less(words);
  }
#endif
  return packet_slicing(words);
}

u32 crc32k_reference(std::span<const u8> bytes) {
  u32 state = kInit;
  for (const u8 b : bytes) {
    state ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (state >> 1) ^ kPolyKoopmanReflected
                           : (state >> 1);
    }
  }
  return ~state;
}

const Engine& slicing_by_8() { return kSlicingEngine; }

const Engine* carry_less() {
#if HMCSIM_CRC_CARRY_LESS
  if (host_has_carry_less()) return &kCarryLessEngine;
#endif
  return nullptr;
}

}  // namespace hmcsim::crc
