// Checkpoint surgery for hostile-input tests: walk the section frames of a
// saved stream, overwrite payload words, and reseal a section's CRC so the
// edit gets past the frame check and reaches the decoders behind it.
#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/stats.hpp"
#include "packet/crc32.hpp"
#include "reg/registers.hpp"

namespace hmcsim::test {

/// One section frame of a saved checkpoint, as byte offsets into it.
struct CkptSection {
  u32 type{0};
  usize crc_at{0};   ///< offset of the frame's CRC word
  usize payload{0};  ///< offset of the first payload byte
  usize len{0};      ///< payload length in bytes
};

/// DEVC payload word holding the page count: the section opens with the
/// counters, then one value and one self-clear flag per register.  Each
/// page that follows is its index word plus kPageBytes / 8 data words.
inline constexpr usize kDevcPageCountWord =
    std::size(kStatFields) + 2 * kRegCount;

inline u64 load_word(const std::string& bytes, usize at) {
  u64 v = 0;
  for (usize i = 0; i < 8; ++i) {
    v |= static_cast<u64>(static_cast<u8>(bytes[at + i])) << (8 * i);
  }
  return v;
}

inline void store_word(std::string& bytes, usize at, u64 v) {
  for (usize i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// The section frames of a well-formed stream, in order (magic and version
/// take the first 16 bytes; every header field is one 8-byte word).
inline std::vector<CkptSection> checkpoint_sections(const std::string& bytes) {
  std::vector<CkptSection> sections;
  usize at = 16;
  while (at + 24 <= bytes.size()) {
    const u64 type = load_word(bytes, at);
    const u64 len = load_word(bytes, at + 8);
    if (type > 0xffffffffull || at + 24 + len > bytes.size()) break;
    sections.push_back(CkptSection{static_cast<u32>(type), at + 16, at + 24,
                                   static_cast<usize>(len)});
    at += 24 + static_cast<usize>(len);
  }
  return sections;
}

/// The first section of `type` (the first DEVC for device 0).
inline CkptSection find_section(const std::string& bytes, u32 type) {
  for (const CkptSection& s : checkpoint_sections(bytes)) {
    if (s.type == type) return s;
  }
  ADD_FAILURE() << "no section of type " << type;
  return CkptSection{};
}

/// Recompute and store the section's payload CRC-32K.
inline void reseal(std::string& bytes, const CkptSection& s) {
  const std::span<const u8> payload(
      reinterpret_cast<const u8*>(bytes.data()) + s.payload, s.len);
  store_word(bytes, s.crc_at, crc::crc32k(payload));
}

/// Overwrite payload word `word` of `s` with `v` and reseal the section.
inline void forge_word(std::string& bytes, const CkptSection& s, usize word,
                       u64 v) {
  store_word(bytes, s.payload + 8 * word, v);
  reseal(bytes, s);
}

}  // namespace hmcsim::test
