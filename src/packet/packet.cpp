#include "packet/packet.hpp"

#include <algorithm>

#include "packet/crc32.hpp"

namespace hmcsim {

u32 packet_crc(const PacketBuffer& p) {
  // The CRC field is masked inside the fold, so the packet is not copied.
  return crc::crc32k_packet({p.words.data(), p.word_count()});
}

void seal_crc(PacketBuffer& p) {
  p.tail() = deposit(p.tail(), 32, 32, packet_crc(p));
}

bool check_crc(const PacketBuffer& p) {
  return field::crc_of(p.tail()) == packet_crc(p);
}

namespace {

Status encode_common(u64 header, u64 tail, u32 lng,
                     std::span<const u64> payload, PacketBuffer& out) {
  if (lng < spec::kMinPacketFlits || lng > spec::kMaxPacketFlits) {
    return Status::InvalidArgument;
  }
  const usize payload_words = usize{lng} * 2 - 2;
  if (payload.size() != payload_words) return Status::InvalidArgument;

  out.flits = lng;
  out.words[0] = header;
  std::copy(payload.begin(), payload.end(), out.words.begin() + 1);
  out.words[out.word_count() - 1] = tail;
  seal_crc(out);
  return Status::Ok;
}

}  // namespace

Status encode_request(const RequestFields& fields,
                      std::span<const u64> payload, PacketBuffer& out) {
  if (!is_request(fields.cmd) && !is_flow(fields.cmd)) {
    return Status::InvalidArgument;
  }
  if (fields.addr > spec::kAddrMask || fields.tag > spec::kMaxTag) {
    return Status::InvalidArgument;
  }
  const u32 lng = static_cast<u32>(request_flits(fields.cmd));
  const u64 header = field::make_request_header(fields.cmd, lng, fields.tag,
                                                fields.addr, fields.cub);
  const u64 tail = field::make_request_tail(fields.slid, fields.seq,
                                            fields.rtc, fields.pb, fields.frp,
                                            fields.rrp);
  return encode_common(header, tail, lng, payload, out);
}

Status decode_request(const PacketBuffer& in, RequestFields& out) {
  if (in.flits < spec::kMinPacketFlits || in.flits > spec::kMaxPacketFlits) {
    return Status::MalformedPacket;
  }
  const u64 header = in.header();
  const u8 raw_cmd = static_cast<u8>(extract(header, 0, 6));
  if (!is_valid_command(raw_cmd)) return Status::MalformedPacket;
  const Command cmd = static_cast<Command>(raw_cmd);
  if (!is_request(cmd) && !is_flow(cmd)) return Status::MalformedPacket;

  const u32 lng = field::lng_of(header);
  if (lng != field::dln_of(header) || lng != in.flits ||
      lng != request_flits(cmd)) {
    return Status::MalformedPacket;
  }
  if (!check_crc(in)) return Status::MalformedPacket;

  const u64 tail = in.tail();
  out.cmd = cmd;
  out.lng = lng;
  out.tag = field::tag_of(header);
  out.addr = field::adrs_of(header);
  out.cub = field::cub_of(header);
  out.rrp = static_cast<u8>(extract(tail, 0, 8));
  out.frp = static_cast<u8>(extract(tail, 8, 8));
  out.seq = static_cast<u8>(extract(tail, 16, 3));
  out.pb = extract(tail, 19, 1) != 0;
  out.slid = field::request_slid_of(tail);
  out.rtc = static_cast<u8>(extract(tail, 26, 3));
  return Status::Ok;
}

Status encode_response(const ResponseFields& fields,
                       std::span<const u64> payload, PacketBuffer& out) {
  if (!is_response(fields.cmd)) return Status::InvalidArgument;
  if (fields.tag > spec::kMaxTag) return Status::InvalidArgument;
  // Response length is data-dependent: 1 + payload FLITs.
  if (payload.size() % 2 != 0) return Status::InvalidArgument;
  const u32 lng = static_cast<u32>(1 + payload.size() / 2);
  const u64 header = field::make_response_header(fields.cmd, lng, fields.tag,
                                                 fields.slid, fields.cub);
  const u64 tail =
      field::make_response_tail(fields.errstat, fields.dinv, fields.seq,
                                fields.rtc, fields.frp, fields.rrp);
  return encode_common(header, tail, lng, payload, out);
}

Status decode_response(const PacketBuffer& in, ResponseFields& out) {
  if (in.flits < spec::kMinPacketFlits || in.flits > spec::kMaxPacketFlits) {
    return Status::MalformedPacket;
  }
  const u64 header = in.header();
  const u8 raw_cmd = static_cast<u8>(extract(header, 0, 6));
  if (!is_valid_command(raw_cmd)) return Status::MalformedPacket;
  const Command cmd = static_cast<Command>(raw_cmd);
  if (!is_response(cmd)) return Status::MalformedPacket;

  const u32 lng = field::lng_of(header);
  if (lng != field::dln_of(header) || lng != in.flits) {
    return Status::MalformedPacket;
  }
  if (!check_crc(in)) return Status::MalformedPacket;

  const u64 tail = in.tail();
  out.cmd = cmd;
  out.lng = lng;
  out.tag = field::tag_of(header);
  out.cub = field::cub_of(header);
  out.slid = field::response_slid_of(header);
  out.rrp = static_cast<u8>(extract(tail, 0, 8));
  out.frp = static_cast<u8>(extract(tail, 8, 8));
  out.seq = static_cast<u8>(extract(tail, 16, 3));
  out.dinv = extract(tail, 19, 1) != 0;
  out.errstat = field::errstat_of(tail);
  out.rtc = static_cast<u8>(extract(tail, 27, 3));
  return Status::Ok;
}

}  // namespace hmcsim
