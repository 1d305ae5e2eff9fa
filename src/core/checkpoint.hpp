// Checkpoint robustness layer: typed restore errors, the v6 section-framed
// container, and generation-directory management for periodic
// auto-checkpointing (docs/FORMATS.md §5).
//
// The simulator's value is long deterministic runs; PRs 1-6 made the
// *simulated* device fault-tolerant, and this layer extends the same RAS
// discipline to the simulator process itself:
//
//   * every restore failure — bad magic, short read, CRC mismatch,
//     impossible field value, unknown version — becomes a typed
//     CheckpointError instead of an abort or silent corruption;
//   * checkpoints are written atomically (io/atomic_file.hpp) and framed
//     per section with a length and CRC-32K plus a trailer magic, so a
//     torn or bit-rotted file is *detected*, never restored;
//   * a checkpoint directory holds rotated generations
//     (ckpt-<gen 12-digit>.bin) and resume scans them newest-first,
//     falling back past damaged files to the newest valid one.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace hmcsim {

class Simulator;

// ---- typed restore/save errors ---------------------------------------------

enum class CheckpointErrorCode : u8 {
  None = 0,
  IoError,             ///< OS-level open/read failure (file entry points)
  BadMagic,            ///< leading container magic mismatch
  UnsupportedVersion,  ///< version outside [kMinVersion, kVersion]
  ShortRead,           ///< stream ended inside a field or section
  BadSectionType,      ///< v6 section header carries an unknown/misplaced type
  SectionTooLarge,     ///< v6 section length above the hostile-input cap
  SectionCrcMismatch,  ///< v6 section payload fails its CRC-32K
  TrailerMissing,      ///< v6 trailer magic absent (file truncated at the end)
  BadFieldValue,       ///< a decoded value fails validation (impossible state)
  BadHostState,        ///< HOST section blob fails its consumer's validation
  WriteFailed,         ///< checkpoint write failed (short write/ENOSPC/EIO)
};

[[nodiscard]] const char* to_string(CheckpointErrorCode code);

struct CheckpointError {
  CheckpointErrorCode code{CheckpointErrorCode::None};
  /// Byte offset into the checkpoint stream where the failure was detected
  /// (0 when not meaningful, e.g. write failures).
  u64 offset{0};
  /// v6 section type the failure occurred in (0 = preamble/trailer).
  u32 section{0};
  std::string detail;

  [[nodiscard]] bool failed() const {
    return code != CheckpointErrorCode::None;
  }
  /// One-line human-readable rendering: code, section, offset, detail.
  [[nodiscard]] std::string message() const;
};

// ---- v6 container constants ------------------------------------------------

namespace ckpt {

constexpr u32 fourcc(char a, char b, char c, char d) {
  return static_cast<u32>(static_cast<u8>(a)) |
         static_cast<u32>(static_cast<u8>(b)) << 8 |
         static_cast<u32>(static_cast<u8>(c)) << 16 |
         static_cast<u32>(static_cast<u8>(d)) << 24;
}

/// Section types, in their mandatory order.  DEVC repeats once per device;
/// CHAO is mandatory since v8 (a pristine record when no campaign is armed);
/// HOST is optional (present when the saver attached host-side state).
constexpr u32 kSectionConfig = fourcc('C', 'F', 'G', ' ');
constexpr u32 kSectionTopology = fourcc('T', 'O', 'P', 'O');
constexpr u32 kSectionClock = fourcc('C', 'L', 'K', ' ');
constexpr u32 kSectionDevice = fourcc('D', 'E', 'V', 'C');
constexpr u32 kSectionWatchdog = fourcc('W', 'D', 'O', 'G');
constexpr u32 kSectionChaos = fourcc('C', 'H', 'A', 'O');
constexpr u32 kSectionHost = fourcc('H', 'O', 'S', 'T');

/// Hostile-input guard: no legitimate section approaches this (a maximal
/// 8 GB device image is dominated by DEVC page records, and those are
/// bounded by resident pages, not capacity).
constexpr u64 kMaxSectionBytes = u64{1} << 32;

/// Short name for error messages ("CFG", "DEVC", ...); "?" when unknown.
[[nodiscard]] const char* section_name(u32 type);

}  // namespace ckpt

// ---- generation directories ------------------------------------------------

struct CheckpointGeneration {
  u64 gen{0};
  std::string path;
};

/// `<dir>/ckpt-<gen, 12 decimal digits>.bin`.
[[nodiscard]] std::string checkpoint_generation_path(const std::string& dir,
                                                     u64 gen);

/// Every well-named generation file in `dir`, ascending by generation.
/// Temp debris (`*.tmp.*`) and foreign files are ignored.  A missing or
/// unreadable directory yields an empty list.
[[nodiscard]] std::vector<CheckpointGeneration> list_checkpoint_generations(
    const std::string& dir);

/// Delete all but the newest `keep` generations (keep == 0 keeps them all).
void prune_checkpoint_generations(const std::string& dir, u32 keep);

/// Scan `dir` newest-first and restore the first generation that validates,
/// falling back past torn or corrupt files (that fallback is the point of
/// rotation).  On success returns Ok with `*gen_out` set and the HOST blob
/// (when present) in `*host_blob_out`.  Returns NoResponse when the
/// directory holds no generation files at all; otherwise the failure of the
/// newest generation, described in `*err`.
Status resume_from_directory(Simulator& sim, const std::string& dir,
                             u64* gen_out = nullptr,
                             std::string* host_blob_out = nullptr,
                             CheckpointError* err = nullptr);

}  // namespace hmcsim
