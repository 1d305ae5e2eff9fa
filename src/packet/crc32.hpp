// CRC-32K: the Koopman polynomial CRC the HMC specification prescribes for
// packet integrity (paper ref [29], Koopman & Chakravarty, DSN 2004).
//
// Polynomial 0x741B8CD7 (normal form), reflected implementation with
// init = 0xFFFFFFFF and final xor = 0xFFFFFFFF.  Two engines compute it:
//
//   * slicing-by-8, portable: one little-endian 64-bit word per step
//     through eight compile-time tables;
//   * carry-less multiply (PCLMULQDQ + SSE4.1, x86-64 only): each 16-byte
//     block is multiplied by x^(128d+32) and x^(128d-32) mod P for its
//     distance d from the last block, the independent products are XORed
//     and the 128-bit sum is reduced once (Gopal et al., "Fast CRC
//     Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//     Intel, 2009).
//
// `crc32k` and `crc32k_packet` pick between them once per process, from
// CPUID; a bit-at-a-time reference is the independent oracle the tests
// check both engines against.
#pragma once

#include <span>

#include "common/types.hpp"

namespace hmcsim::crc {

/// Koopman polynomial in normal (MSB-first) form.
inline constexpr u32 kPolyKoopman = 0x741b8cd7u;

/// Koopman polynomial in reflected (LSB-first) form.
inline constexpr u32 kPolyKoopmanReflected = 0xeb31d82eu;

/// CRC-32K over a byte span.
[[nodiscard]] u32 crc32k(std::span<const u8> bytes);

/// CRC-32K of one packet: its little-endian 64-bit words (1..9 whole
/// FLITs, so 2..18 words), with the packet's CRC field, the high 32 bits
/// of the last word, read as zero whatever it holds.
[[nodiscard]] u32 crc32k_packet(std::span<const u64> words);

/// Bit-at-a-time reference implementation (slow; for validation only).
[[nodiscard]] u32 crc32k_reference(std::span<const u8> bytes);

/// One engine: the two functions above, computed one way.
struct Engine {
  const char* name;
  u32 (*bytes)(std::span<const u8>);
  u32 (*packet)(std::span<const u64>);
};

/// The portable slicing-by-8 engine.
[[nodiscard]] const Engine& slicing_by_8();

/// The carry-less engine, or null where the build target or this host's
/// CPU lacks PCLMULQDQ and SSE4.1.
[[nodiscard]] const Engine* carry_less();

}  // namespace hmcsim::crc
