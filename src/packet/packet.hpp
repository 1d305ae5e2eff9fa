// Packet buffer and wire-format codec.
//
// Every in-band HMC transaction is a packet of 1..9 FLITs (16 bytes each).
// The first 64-bit word of the packet is the *header*, the last 64-bit word
// is the *tail*; everything between is data payload.  HMC-Sim stores packets
// as little-endian 64-bit word arrays, large enough for the maximal 9-FLIT
// packet, exactly like the queue slots of a physical device (paper §IV.A).
//
// Field layouts (bit positions within the 64-bit header/tail words):
//
//   Request header : CMD[5:0] LNG[10:7] DLN[14:11] TAG[23:15] ADRS[57:24]
//                    CUB[63:61]
//   Request tail   : RRP[7:0] FRP[15:8] SEQ[18:16] Pb[19] SLID[22:20]
//                    RTC[28:26] CRC[63:32]
//   Response header: CMD[5:0] LNG[10:7] DLN[14:11] TAG[23:15] SLID[41:39]
//                    CUB[63:61]
//   Response tail  : RRP[7:0] FRP[15:8] SEQ[18:16] DINV[19] ERRSTAT[26:20]
//                    RTC[29:27] CRC[63:32]
//
// The CRC is CRC-32K computed over the whole packet with the CRC field
// zeroed, then deposited into the tail.
#pragma once

#include <array>
#include <span>

#include "common/bitops.hpp"
#include "common/limits.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "packet/command.hpp"

namespace hmcsim {

/// Fixed-capacity storage for one packet.  Cheap to copy; the simulator
/// moves these by value between queue slots.
struct PacketBuffer {
  std::array<u64, spec::kMaxPacketWords> words{};
  u32 flits{0};  ///< 1..9; 0 denotes an empty/invalid buffer.

  [[nodiscard]] usize word_count() const { return usize{flits} * 2; }

  [[nodiscard]] u64 header() const { return words[0]; }
  [[nodiscard]] u64 tail() const { return words[word_count() - 1]; }

  u64& header() { return words[0]; }
  u64& tail() { return words[word_count() - 1]; }

  /// Data payload words (between header and tail).  Empty for 1-FLIT packets.
  [[nodiscard]] std::span<const u64> payload() const {
    return {words.data() + 1, word_count() - 2};
  }
  [[nodiscard]] std::span<u64> payload() {
    return {words.data() + 1, word_count() - 2};
  }

  bool operator==(const PacketBuffer& other) const {
    if (flits != other.flits) return false;
    for (usize i = 0; i < word_count(); ++i) {
      if (words[i] != other.words[i]) return false;
    }
    return true;
  }
};

/// Decoded request-packet fields.
struct RequestFields {
  Command cmd{Command::Null};
  u32 lng{1};       ///< packet length in FLITs (LNG; DLN mirrors it)
  Tag tag{0};       ///< 9-bit transaction tag
  PhysAddr addr{0}; ///< 34-bit physical address
  u32 cub{0};       ///< destination cube id
  u32 slid{0};      ///< source link id (for response routing)
  u8 seq{0};        ///< 3-bit sequence number
  u8 rtc{0};        ///< return token count
  bool pb{false};   ///< poison bit
  u8 frp{0};        ///< forward retry pointer
  u8 rrp{0};        ///< return retry pointer
};

/// Decoded response-packet fields.
struct ResponseFields {
  Command cmd{Command::Null};
  u32 lng{1};
  Tag tag{0};
  u32 cub{0};       ///< cube id of the responding device
  u32 slid{0};      ///< link the original request arrived on
  ErrStat errstat{ErrStat::Ok};
  bool dinv{false}; ///< data-invalid indicator
  u8 seq{0};
  u8 rtc{0};
  u8 frp{0};
  u8 rrp{0};
};

// ---------------------------------------------------------------------------
// Raw header/tail field accessors.  These operate on bare 64-bit words so the
// C shim can expose the paper's (head, tail) out-parameters directly.
// ---------------------------------------------------------------------------

namespace field {

// Header fields (shared between requests and responses).
[[nodiscard]] inline Command cmd_of(u64 header) {
  return static_cast<Command>(extract(header, 0, 6));
}
[[nodiscard]] inline u32 lng_of(u64 header) {
  return static_cast<u32>(extract(header, 7, 4));
}
[[nodiscard]] inline u32 dln_of(u64 header) {
  return static_cast<u32>(extract(header, 11, 4));
}
[[nodiscard]] inline Tag tag_of(u64 header) {
  return static_cast<Tag>(extract(header, 15, 9));
}
[[nodiscard]] inline PhysAddr adrs_of(u64 header) {
  return extract(header, 24, 34);
}
[[nodiscard]] inline u32 cub_of(u64 header) {
  return static_cast<u32>(extract(header, 61, 3));
}
/// SLID field of a *response* header.
[[nodiscard]] inline u32 response_slid_of(u64 header) {
  return static_cast<u32>(extract(header, 39, 3));
}
/// SLID field of a *request* tail.
[[nodiscard]] inline u32 request_slid_of(u64 tail) {
  return static_cast<u32>(extract(tail, 20, 3));
}
[[nodiscard]] inline u32 crc_of(u64 tail) {
  return static_cast<u32>(extract(tail, 32, 32));
}
[[nodiscard]] inline ErrStat errstat_of(u64 tail) {
  return static_cast<ErrStat>(extract(tail, 20, 7));
}

[[nodiscard]] inline u64 make_request_header(Command cmd, u32 lng, Tag tag,
                                             PhysAddr addr, u32 cub) {
  u64 h = 0;
  h = deposit(h, 0, 6, static_cast<u64>(cmd));
  h = deposit(h, 7, 4, lng);
  h = deposit(h, 11, 4, lng);  // DLN mirrors LNG
  h = deposit(h, 15, 9, tag);
  h = deposit(h, 24, 34, addr);
  h = deposit(h, 61, 3, cub);
  return h;
}

[[nodiscard]] inline u64 make_request_tail(u32 slid, u8 seq, u8 rtc, bool pb,
                                           u8 frp, u8 rrp) {
  u64 t = 0;
  t = deposit(t, 0, 8, rrp);
  t = deposit(t, 8, 8, frp);
  t = deposit(t, 16, 3, seq);
  t = deposit(t, 19, 1, pb ? 1 : 0);
  t = deposit(t, 20, 3, slid);
  t = deposit(t, 26, 3, rtc);
  return t;  // CRC deposited by seal_crc
}

[[nodiscard]] inline u64 make_response_header(Command cmd, u32 lng, Tag tag,
                                              u32 slid, u32 cub) {
  u64 h = 0;
  h = deposit(h, 0, 6, static_cast<u64>(cmd));
  h = deposit(h, 7, 4, lng);
  h = deposit(h, 11, 4, lng);
  h = deposit(h, 15, 9, tag);
  h = deposit(h, 39, 3, slid);
  h = deposit(h, 61, 3, cub);
  return h;
}

[[nodiscard]] inline u64 make_response_tail(ErrStat errstat, bool dinv, u8 seq,
                                            u8 rtc, u8 frp, u8 rrp) {
  u64 t = 0;
  t = deposit(t, 0, 8, rrp);
  t = deposit(t, 8, 8, frp);
  t = deposit(t, 16, 3, seq);
  t = deposit(t, 19, 1, dinv ? 1 : 0);
  t = deposit(t, 20, 7, static_cast<u64>(errstat));
  t = deposit(t, 27, 3, rtc);
  return t;
}

}  // namespace field

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

/// Encode a request packet.  `payload` must contain exactly the number of
/// 64-bit words the command requires (request_data_bytes / 8).  The CRC is
/// computed and inserted.  LNG/DLN are derived from the command; fields.lng
/// is ignored on input.
[[nodiscard]] Status encode_request(const RequestFields& fields,
                                    std::span<const u64> payload,
                                    PacketBuffer& out);

/// Decode a request packet.  This is the structural check at host ingress:
/// flit count in range, known request or flow command, length consistency
/// (LNG == DLN == flits == request_flits(cmd)) and CRC.  Any failure is
/// MalformedPacket and leaves `out` untouched.
[[nodiscard]] Status decode_request(const PacketBuffer& in,
                                    RequestFields& out);

/// Encode a response packet.  `payload` sizing mirrors encode_request.
[[nodiscard]] Status encode_response(const ResponseFields& fields,
                                     std::span<const u64> payload,
                                     PacketBuffer& out);

/// Decode a response packet (validates command/length/CRC).
[[nodiscard]] Status decode_response(const PacketBuffer& in,
                                     ResponseFields& out);

/// Compute the CRC-32K of `p` with the tail CRC field treated as zero.
/// `p.flits` must be 1..9.
[[nodiscard]] u32 packet_crc(const PacketBuffer& p);

/// Recompute and deposit the CRC into the tail.
void seal_crc(PacketBuffer& p);

/// True when the deposited CRC matches the recomputed one.
[[nodiscard]] bool check_crc(const PacketBuffer& p);

}  // namespace hmcsim
