#include "packet/packet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "packet/crc32.hpp"

namespace hmcsim {
namespace {

std::vector<u64> make_payload(usize words, u64 seed = 7) {
  SplitMix64 rng(seed);
  std::vector<u64> payload(words);
  for (auto& w : payload) w = rng.next();
  return payload;
}

RequestFields sample_request(Command cmd) {
  RequestFields f;
  f.cmd = cmd;
  f.addr = 0x2'2345'6780ull & spec::kAddrMask;
  f.tag = 0x1A5;
  f.cub = 3;
  f.slid = 5;
  f.seq = 2;
  f.rtc = 1;
  f.pb = true;
  f.frp = 0xAB;
  f.rrp = 0xCD;
  return f;
}

// ---- request round trips over the entire command set ----------------------

class RequestRoundTrip : public ::testing::TestWithParam<Command> {};

TEST_P(RequestRoundTrip, EncodeDecodePreservesEveryField) {
  const Command cmd = GetParam();
  const RequestFields in = sample_request(cmd);
  const auto payload = make_payload(request_data_bytes(cmd) / 8);

  PacketBuffer pkt;
  ASSERT_EQ(encode_request(in, payload, pkt), Status::Ok);
  EXPECT_EQ(pkt.flits, request_flits(cmd));

  RequestFields out;
  ASSERT_EQ(decode_request(pkt, out), Status::Ok);
  EXPECT_EQ(out.cmd, in.cmd);
  EXPECT_EQ(out.addr, in.addr);
  EXPECT_EQ(out.tag, in.tag);
  EXPECT_EQ(out.cub, in.cub);
  EXPECT_EQ(out.slid, in.slid);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.rtc, in.rtc);
  EXPECT_EQ(out.pb, in.pb);
  EXPECT_EQ(out.frp, in.frp);
  EXPECT_EQ(out.rrp, in.rrp);
  EXPECT_EQ(out.lng, pkt.flits);

  // Payload words survive untouched.
  ASSERT_EQ(pkt.payload().size(), payload.size());
  for (usize i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(pkt.payload()[i], payload[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRequestCommands, RequestRoundTrip,
    ::testing::Values(Command::Wr16, Command::Wr32, Command::Wr48,
                      Command::Wr64, Command::Wr80, Command::Wr96,
                      Command::Wr112, Command::Wr128, Command::ModeWrite,
                      Command::BitWrite, Command::TwoAdd8, Command::Add16,
                      Command::PostedWr16, Command::PostedWr64,
                      Command::PostedWr128, Command::PostedBitWrite,
                      Command::PostedTwoAdd8, Command::PostedAdd16,
                      Command::ModeRead, Command::Rd16, Command::Rd32,
                      Command::Rd48, Command::Rd64, Command::Rd80,
                      Command::Rd96, Command::Rd112, Command::Rd128),
    [](const auto& info) {
      std::string name{to_string(info.param)};
      for (auto& ch : name) {
        if (ch == '_') ch = 'x';
      }
      return name;
    });

// ---- flow-control packets ---------------------------------------------------

class FlowRoundTrip : public ::testing::TestWithParam<Command> {};

TEST_P(FlowRoundTrip, SingleFlitEncodeDecode) {
  // Flow-control packets (NULL/PRET/TRET/IRTRY) ride the request format as
  // single-FLIT packets with no meaningful address.
  RequestFields f;
  f.cmd = GetParam();
  f.rrp = 0x11;
  f.frp = 0x22;
  f.rtc = 3;
  PacketBuffer pkt;
  ASSERT_EQ(encode_request(f, {}, pkt), Status::Ok);
  EXPECT_EQ(pkt.flits, 1u);
  RequestFields out;
  ASSERT_EQ(decode_request(pkt, out), Status::Ok);
  EXPECT_EQ(out.cmd, f.cmd);
  EXPECT_EQ(out.rrp, 0x11);
  EXPECT_EQ(out.frp, 0x22);
  EXPECT_EQ(out.rtc, 3);
}

INSTANTIATE_TEST_SUITE_P(FlowCommands, FlowRoundTrip,
                         ::testing::Values(Command::Null, Command::Pret,
                                           Command::Tret, Command::Irtry),
                         [](const auto& info) {
                           std::string name{to_string(info.param)};
                           return name;
                         });

// ---- response round trips ---------------------------------------------------

TEST(ResponsePacket, ReadResponseRoundTrip) {
  ResponseFields in;
  in.cmd = Command::ReadResponse;
  in.tag = 0x155;
  in.cub = 6;
  in.slid = 7;
  in.errstat = ErrStat::Ok;
  in.dinv = false;
  in.seq = 5;
  in.rtc = 3;
  in.frp = 0x12;
  in.rrp = 0x34;
  const auto payload = make_payload(8);  // 64-byte read

  PacketBuffer pkt;
  ASSERT_EQ(encode_response(in, payload, pkt), Status::Ok);
  EXPECT_EQ(pkt.flits, 5u);

  ResponseFields out;
  ASSERT_EQ(decode_response(pkt, out), Status::Ok);
  EXPECT_EQ(out.cmd, in.cmd);
  EXPECT_EQ(out.tag, in.tag);
  EXPECT_EQ(out.cub, in.cub);
  EXPECT_EQ(out.slid, in.slid);
  EXPECT_EQ(out.errstat, in.errstat);
  EXPECT_EQ(out.dinv, in.dinv);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.rtc, in.rtc);
  EXPECT_EQ(out.frp, in.frp);
  EXPECT_EQ(out.rrp, in.rrp);
}

TEST(ResponsePacket, ErrorResponseCarriesErrstat) {
  ResponseFields in;
  in.cmd = Command::Error;
  in.tag = 9;
  in.cub = 1;
  in.errstat = ErrStat::Unroutable;
  in.dinv = true;
  PacketBuffer pkt;
  ASSERT_EQ(encode_response(in, {}, pkt), Status::Ok);
  EXPECT_EQ(pkt.flits, 1u);
  ResponseFields out;
  ASSERT_EQ(decode_response(pkt, out), Status::Ok);
  EXPECT_EQ(out.errstat, ErrStat::Unroutable);
  EXPECT_TRUE(out.dinv);
}

TEST(ResponsePacket, EveryResponseLengthRoundTrips) {
  for (usize data_flits = 0; data_flits <= 8; ++data_flits) {
    ResponseFields in;
    in.cmd = Command::ReadResponse;
    in.tag = static_cast<Tag>(data_flits);
    const auto payload = make_payload(data_flits * 2);
    PacketBuffer pkt;
    ASSERT_EQ(encode_response(in, payload, pkt), Status::Ok);
    EXPECT_EQ(pkt.flits, data_flits + 1);
    ResponseFields out;
    ASSERT_EQ(decode_response(pkt, out), Status::Ok);
    EXPECT_EQ(out.lng, data_flits + 1);
  }
}

// ---- validation and CRC ------------------------------------------------------

TEST(PacketValidation, RejectsWrongPayloadSize) {
  const RequestFields f = sample_request(Command::Wr64);
  PacketBuffer pkt;
  EXPECT_EQ(encode_request(f, make_payload(7), pkt), Status::InvalidArgument);
  EXPECT_EQ(encode_request(f, make_payload(9), pkt), Status::InvalidArgument);
  EXPECT_EQ(encode_request(f, make_payload(8), pkt), Status::Ok);
}

TEST(PacketValidation, RejectsOversizedAddressAndTag) {
  RequestFields f = sample_request(Command::Rd16);
  f.addr = spec::kAddrMask + 1;
  PacketBuffer pkt;
  EXPECT_EQ(encode_request(f, {}, pkt), Status::InvalidArgument);
  f = sample_request(Command::Rd16);
  f.tag = spec::kMaxTag + 1;
  EXPECT_EQ(encode_request(f, {}, pkt), Status::InvalidArgument);
}

TEST(PacketValidation, RejectsResponseCommandInRequestEncoder) {
  RequestFields f = sample_request(Command::Rd16);
  f.cmd = Command::ReadResponse;
  PacketBuffer pkt;
  EXPECT_EQ(encode_request(f, {}, pkt), Status::InvalidArgument);
}

TEST(PacketValidation, RequestDecoderRejectsResponses) {
  ResponseFields rf;
  rf.cmd = Command::WriteResponse;
  PacketBuffer pkt;
  ASSERT_EQ(encode_response(rf, {}, pkt), Status::Ok);
  RequestFields out;
  EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket);
}

TEST(PacketValidation, CrcDetectsCorruption) {
  const RequestFields f = sample_request(Command::Wr32);
  PacketBuffer pkt;
  ASSERT_EQ(encode_request(f, make_payload(4), pkt), Status::Ok);
  EXPECT_TRUE(check_crc(pkt));

  // Flip one payload bit: decode must fail until the CRC is resealed.
  pkt.words[2] ^= 0x10;
  EXPECT_FALSE(check_crc(pkt));
  RequestFields out;
  EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket);
  seal_crc(pkt);
  EXPECT_EQ(decode_request(pkt, out), Status::Ok);
}

TEST(PacketValidation, CrcCoversHeaderAndTailFields) {
  const RequestFields f = sample_request(Command::Rd64);
  PacketBuffer pkt;
  ASSERT_EQ(encode_request(f, {}, pkt), Status::Ok);
  const u32 crc_before = field::crc_of(pkt.tail());
  // Mutating the header changes the packet CRC.
  pkt.words[0] = deposit(pkt.words[0], 15, 9, 0x0F);  // different TAG
  seal_crc(pkt);
  EXPECT_NE(field::crc_of(pkt.tail()), crc_before);
}

TEST(PacketValidation, ValidatePacketChecksLngConsistency) {
  PacketBuffer rq;
  ASSERT_EQ(encode_request(sample_request(Command::Wr16), make_payload(2), rq),
            Status::Ok);
  RequestFields rq_out;
  EXPECT_EQ(decode_request(rq, rq_out), Status::Ok);

  ResponseFields rf;
  rf.cmd = Command::ReadResponse;
  PacketBuffer rs;
  ASSERT_EQ(encode_response(rf, make_payload(2), rs), Status::Ok);
  ResponseFields rs_out;
  EXPECT_EQ(decode_response(rs, rs_out), Status::Ok);

  // Corrupt LNG, then DLN (and reseal the CRC so only the length check can
  // fire).
  for (const u32 lo : {7u, 11u}) {
    PacketBuffer bad = rq;
    bad.words[0] = deposit(bad.words[0], lo, 4, 5);
    seal_crc(bad);
    EXPECT_EQ(decode_request(bad, rq_out), Status::MalformedPacket)
        << "bit " << lo;
    bad = rs;
    bad.words[0] = deposit(bad.words[0], lo, 4, 5);
    seal_crc(bad);
    EXPECT_EQ(decode_response(bad, rs_out), Status::MalformedPacket)
        << "bit " << lo;
  }

  // A request whose LNG == DLN == flits still has to match the command's
  // own length: Wr16 is two FLITs, never three.
  PacketBuffer bad = rq;
  bad.flits = 3;
  bad.words[0] = deposit(deposit(bad.words[0], 7, 4, 3), 11, 4, 3);
  bad.words[5] = rq.words[3];
  seal_crc(bad);
  EXPECT_EQ(decode_request(bad, rq_out), Status::MalformedPacket);
}

TEST(PacketValidation, ValidatePacketRejectsUnknownCommand) {
  PacketBuffer pkt;
  pkt.flits = 1;
  pkt.words[0] = deposit(0, 0, 6, 0x3f);  // 0x3f is not a defined command
  pkt.words[0] = deposit(pkt.words[0], 7, 4, 1);
  pkt.words[0] = deposit(pkt.words[0], 11, 4, 1);
  pkt.words[1] = 0;
  seal_crc(pkt);
  RequestFields rq_out;
  EXPECT_EQ(decode_request(pkt, rq_out), Status::MalformedPacket);
  ResponseFields rs_out;
  EXPECT_EQ(decode_response(pkt, rs_out), Status::MalformedPacket);
}

/// The packet's live words as little-endian bytes with the tail's CRC field
/// (tail bytes 4..7) zeroed: the byte string the CRC is defined over.
std::vector<u8> crc_image(const PacketBuffer& p) {
  std::vector<u8> bytes;
  for (usize i = 0; i < p.word_count(); ++i) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<u8>(p.words[i] >> (8 * b)));
    }
  }
  std::fill(bytes.end() - 4, bytes.end(), u8{0});
  return bytes;
}

TEST(PacketCrc, MatchesBitwiseReferenceAtEveryLength) {
  // The packet CRC against the independent bit-serial oracle, on sealed
  // requests and responses of every length 1..9 FLITs.
  constexpr Command kRequestOfFlits[] = {
      Command::Rd64, Command::Wr16, Command::Wr32,  Command::Wr48,
      Command::Wr64, Command::Wr80, Command::Wr96, Command::Wr112,
      Command::Wr128};
  for (u32 flits = 1; flits <= spec::kMaxPacketFlits; ++flits) {
    SCOPED_TRACE(flits);
    const Command cmd = kRequestOfFlits[flits - 1];
    ASSERT_EQ(request_flits(cmd), flits);
    PacketBuffer rq;
    ASSERT_EQ(encode_request(sample_request(cmd),
                             make_payload(request_data_bytes(cmd) / 8, flits),
                             rq),
              Status::Ok);
    const u32 rq_ref = crc::crc32k_reference(crc_image(rq));
    EXPECT_EQ(packet_crc(rq), rq_ref);
    EXPECT_EQ(field::crc_of(rq.tail()), rq_ref);

    ResponseFields rf;
    rf.cmd = Command::ReadResponse;
    rf.tag = 0x0AB;
    rf.slid = 3;
    rf.rrp = 0x5A;
    PacketBuffer rs;
    ASSERT_EQ(encode_response(rf, make_payload((flits - 1) * 2, 100 + flits),
                              rs),
              Status::Ok);
    ASSERT_EQ(rs.flits, flits);
    const u32 rs_ref = crc::crc32k_reference(crc_image(rs));
    EXPECT_EQ(packet_crc(rs), rs_ref);
    EXPECT_EQ(field::crc_of(rs.tail()), rs_ref);

    // Each engine on random words, with nonzero garbage in the CRC field.
    SplitMix64 rng(0x9e3779b9u + flits);
    PacketBuffer raw;
    raw.flits = flits;
    for (usize i = 0; i < raw.word_count(); ++i) raw.words[i] = rng.next();
    raw.tail() = deposit(raw.tail(), 32, 32, 0xa5a5a5a5u);
    const u32 raw_ref = crc::crc32k_reference(crc_image(raw));
    EXPECT_EQ(packet_crc(raw), raw_ref);
    const std::span<const u64> words{raw.words.data(), raw.word_count()};
    EXPECT_EQ(crc::slicing_by_8().packet(words), raw_ref);
    if (const crc::Engine* clmul = crc::carry_less()) {
      EXPECT_EQ(clmul->packet(words), raw_ref);
    }
  }
}

TEST(PacketValidation, ZeroAndOversizedFlitCounts) {
  PacketBuffer pkt;
  pkt.flits = 0;
  RequestFields out;
  EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket);
  pkt.flits = 10;
  EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket);
}

TEST(PacketBuffer, HeaderTailAccessors) {
  PacketBuffer pkt;
  pkt.flits = 3;
  pkt.words[0] = 0xAAA;
  pkt.words[5] = 0xBBB;
  EXPECT_EQ(pkt.header(), 0xAAAu);
  EXPECT_EQ(pkt.tail(), 0xBBBu);
  EXPECT_EQ(pkt.payload().size(), 4u);
}

TEST(PacketBuffer, EqualityComparesOnlyLiveWords) {
  PacketBuffer a, b;
  a.flits = b.flits = 1;
  a.words[0] = b.words[0] = 1;
  a.words[1] = b.words[1] = 2;
  // Garbage beyond the live words must not affect equality.
  a.words[17] = 0xdead;
  b.words[17] = 0xbeef;
  EXPECT_EQ(a, b);
  b.words[1] = 3;
  EXPECT_FALSE(a == b);
}

TEST(PacketFields, RawFieldHelpers) {
  const u64 header = field::make_request_header(Command::Rd64, 1, 0x1FF,
                                                0x3'FFFF'FFFFull, 7);
  EXPECT_EQ(field::cmd_of(header), Command::Rd64);
  EXPECT_EQ(field::lng_of(header), 1u);
  EXPECT_EQ(field::dln_of(header), 1u);
  EXPECT_EQ(field::tag_of(header), 0x1FFu);
  EXPECT_EQ(field::adrs_of(header), 0x3'FFFF'FFFFull);
  EXPECT_EQ(field::cub_of(header), 7u);

  const u64 tail = field::make_request_tail(5, 3, 2, true, 0xAA, 0xBB);
  EXPECT_EQ(field::request_slid_of(tail), 5u);
  EXPECT_EQ(field::crc_of(tail), 0u);  // CRC deposited separately
}

}  // namespace
}  // namespace hmcsim
