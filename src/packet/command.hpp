// The HMC 1.0 command set.
//
// Every in-band packet carries a 6-bit CMD field.  The encodings below follow
// the Hybrid Memory Cube Specification 1.0 command tables: memory writes
// (posted and non-posted), bit writes, dual 8-byte and 16-byte atomic adds,
// mode register access, memory reads, flow control, and responses.
//
// HMC-Sim implements *all* packet variations (paper §IV requirement 5), so
// every command here is understood by the packet codec, the vault pipeline
// and the trace layer.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace hmcsim {

enum class Command : u8 {
  // -- Flow control (1 FLIT, no data) --------------------------------------
  Null = 0x00,   ///< NULL packet; ignored by receivers.
  Pret = 0x01,   ///< Retry pointer return.
  Tret = 0x02,   ///< Token return (link-level flow control credit).
  Irtry = 0x03,  ///< Init retry.

  // -- Non-posted writes: 16..128 bytes of payload --------------------------
  Wr16 = 0x08,
  Wr32 = 0x09,
  Wr48 = 0x0a,
  Wr64 = 0x0b,
  Wr80 = 0x0c,
  Wr96 = 0x0d,
  Wr112 = 0x0e,
  Wr128 = 0x0f,

  // -- Mode write / misc write-class requests -------------------------------
  ModeWrite = 0x10,  ///< MD_WR: write an internal device register in-band.
  BitWrite = 0x11,   ///< BWR: 8B data + 8B mask read-modify-write.
  TwoAdd8 = 0x12,    ///< 2ADD8: two independent 8-byte integer adds.
  Add16 = 0x13,      ///< ADD16: one 16-byte integer add.

  // -- Posted writes (no response generated) --------------------------------
  PostedWr16 = 0x18,
  PostedWr32 = 0x19,
  PostedWr48 = 0x1a,
  PostedWr64 = 0x1b,
  PostedWr80 = 0x1c,
  PostedWr96 = 0x1d,
  PostedWr112 = 0x1e,
  PostedWr128 = 0x1f,
  PostedBitWrite = 0x21,
  PostedTwoAdd8 = 0x22,
  PostedAdd16 = 0x23,

  // -- Mode read -------------------------------------------------------------
  ModeRead = 0x28,  ///< MD_RD: read an internal device register in-band.

  // -- Reads: request is always a single FLIT --------------------------------
  Rd16 = 0x30,
  Rd32 = 0x31,
  Rd48 = 0x32,
  Rd64 = 0x33,
  Rd80 = 0x34,
  Rd96 = 0x35,
  Rd112 = 0x36,
  Rd128 = 0x37,

  // -- Responses --------------------------------------------------------------
  ReadResponse = 0x38,       ///< RD_RS: carries the fetched data.
  WriteResponse = 0x39,      ///< WR_RS: completion for writes and atomics.
  ModeReadResponse = 0x3a,   ///< MD_RD_RS: carries 16B of register data.
  ModeWriteResponse = 0x3b,  ///< MD_WR_RS.
  Error = 0x3e,              ///< ERROR response; ERRSTAT describes the cause.
};

/// Bound of a Command-typed field that carries a raw CMD byte, a custom
/// command's reserved encoding included: any byte.
inline constexpr Command kMaxRawCommand{0xff};

/// Error status codes carried in the ERRSTAT field of response tails.
/// Zero means success; the remaining encodings are simulator-defined but
/// stable, exposed so hosts can triage deliberate misconfigurations.
enum class ErrStat : u8 {
  Ok = 0x00,
  Unroutable = 0x01,       ///< no path from ingress link to destination cube
  InvalidAddress = 0x02,   ///< address beyond device capacity
  InvalidCommand = 0x03,   ///< CMD not understood / illegal at this point
  LengthMismatch = 0x04,   ///< LNG inconsistent with CMD
  CrcFailure = 0x05,       ///< packet failed its CRC check
  ProtocolError = 0x06,    ///< e.g. response received on a request path
  RegisterFault = 0x07,    ///< MODE access to a bad register index
  DramDbe = 0x08,          ///< uncorrectable (double-bit) DRAM error
  VaultFailed = 0x09,      ///< addressed vault is marked failed (degraded)
  LinkFailed = 0x0a,       ///< ingress link is dead (retry exhaustion)
};

// ---------------------------------------------------------------------------
// Classification helpers.
// ---------------------------------------------------------------------------

[[nodiscard]] bool is_valid_command(u8 raw);

[[nodiscard]] constexpr bool is_flow(Command c) {
  return static_cast<u8>(c) <= 0x03;
}

[[nodiscard]] constexpr bool is_response(Command c) {
  return c == Command::ReadResponse || c == Command::WriteResponse ||
         c == Command::ModeReadResponse || c == Command::ModeWriteResponse ||
         c == Command::Error;
}

[[nodiscard]] constexpr bool is_request(Command c) {
  return !is_flow(c) && !is_response(c);
}

[[nodiscard]] constexpr bool is_read(Command c) {
  const u8 v = static_cast<u8>(c);
  return v >= 0x30 && v <= 0x37;
}

[[nodiscard]] constexpr bool is_write(Command c) {
  const u8 v = static_cast<u8>(c);
  return (v >= 0x08 && v <= 0x0f) || (v >= 0x18 && v <= 0x1f);
}

[[nodiscard]] constexpr bool is_posted(Command c) {
  const u8 v = static_cast<u8>(c);
  return (v >= 0x18 && v <= 0x1f) || v == 0x21 || v == 0x22 || v == 0x23;
}

[[nodiscard]] constexpr bool is_atomic(Command c) {
  return c == Command::TwoAdd8 || c == Command::Add16 ||
         c == Command::PostedTwoAdd8 || c == Command::PostedAdd16 ||
         c == Command::BitWrite || c == Command::PostedBitWrite;
}

[[nodiscard]] constexpr bool is_mode(Command c) {
  return c == Command::ModeRead || c == Command::ModeWrite;
}

// ---------------------------------------------------------------------------
// Size helpers.
// ---------------------------------------------------------------------------

/// Bytes of data payload carried by a request packet of this command.
/// Reads and mode-reads carry none; WRn carries n; atomics carry 16.
[[nodiscard]] usize request_data_bytes(Command c);

/// Bytes of data the *memory operation* touches (a RD64 touches 64 bytes
/// even though the request packet carries no payload).
[[nodiscard]] usize access_bytes(Command c);

/// Total packet length in FLITs for a request of this command
/// (1 header/tail FLIT + payload FLITs).
[[nodiscard]] usize request_flits(Command c);

/// The response command a vault generates after completing this request, or
/// Command::Null when no response is due (posted requests).
[[nodiscard]] Command response_command(Command c);

/// Total packet length in FLITs for the response to this request.
[[nodiscard]] usize response_flits(Command c);

/// The RDn / WRn command for an access of `bytes` (16..128, multiple of 16).
[[nodiscard]] Command read_command_for(u32 bytes);
[[nodiscard]] Command write_command_for(u32 bytes);

/// Short mnemonic, e.g. "WR64", "P_2ADD8", "RD_RS".
[[nodiscard]] std::string_view to_string(Command c);

[[nodiscard]] std::string_view to_string(ErrStat e);

}  // namespace hmcsim
