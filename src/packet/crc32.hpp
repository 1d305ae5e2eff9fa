// CRC-32K: the Koopman polynomial CRC the HMC specification prescribes for
// packet integrity (paper ref [29], Koopman & Chakravarty, DSN 2004).
//
// Polynomial 0x741B8CD7 (normal form), reflected implementation with
// init = 0xFFFFFFFF and final xor = 0xFFFFFFFF.  Two engines are provided:
// a portable slicing-by-8 engine used by the codec, which folds one
// little-endian 64-bit word per step through eight compile-time tables, and
// a bit-at-a-time reference used as the independent oracle in the test
// suite.
#pragma once

#include <span>

#include "common/types.hpp"

namespace hmcsim::crc {

/// Koopman polynomial in normal (MSB-first) form.
inline constexpr u32 kPolyKoopman = 0x741b8cd7u;

/// Koopman polynomial in reflected (LSB-first) form.
inline constexpr u32 kPolyKoopmanReflected = 0xeb31d82eu;

/// Slicing-by-8 CRC-32K over a byte span.
[[nodiscard]] u32 crc32k(std::span<const u8> bytes);

/// Incremental interface: fold more bytes into a running CRC state.
/// `crc32k(x)` == `finish(update(init(), x))`, however `x` is split.
[[nodiscard]] u32 init();
[[nodiscard]] u32 update(u32 state, std::span<const u8> bytes);
[[nodiscard]] u32 finish(u32 state);

/// Incremental word interface: fold 64-bit words, each read as its eight
/// little-endian bytes, into a running CRC state.
[[nodiscard]] u32 update_words(u32 state, std::span<const u64> words);

/// Bit-at-a-time reference implementation (slow; for validation only).
[[nodiscard]] u32 crc32k_reference(std::span<const u8> bytes);

/// CRC over a span of 64-bit words interpreted little-endian, as packet
/// FLITs are.  Matches crc32k over the equivalent byte string.
[[nodiscard]] u32 crc32k_words(std::span<const u64> words);

}  // namespace hmcsim::crc
