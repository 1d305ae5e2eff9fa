// Seeded round-trip fuzz over every HMC 1.0 packet variant.
//
// test_fuzz.cpp throws byte soup at the decoders; this file attacks from
// the other side: for *every* command the spec defines — each request
// class, each posted variant, each flow packet, each response, at every
// legal length from 1 to 9 FLITs — encode from randomized fields and
// require the exact identity
//
//   encode(fields, payload) |> decode == (fields, payload),
//
// then re-encode the decoded fields and require the byte-identical buffer
// (the wire format has no hidden state).  Sealed packets additionally get
// 1..3 random bit flips anywhere in the FLIT stream — header, payload,
// tail, or the CRC field itself — and must always be rejected cleanly, and
// junk deposited into reserved header bits must break the CRC, never leak
// into decoded fields.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/random.hpp"
#include "packet/packet.hpp"

namespace hmcsim {
namespace {

/// Every CMD encoding the HMC 1.0 tables define for the request direction
/// (flow + write-class + atomics + mode + reads), i.e. everything
/// encode_request accepts.
constexpr Command kRequestVariants[] = {
    Command::Null,          Command::Pret,
    Command::Tret,          Command::Irtry,
    Command::Wr16,          Command::Wr32,
    Command::Wr48,          Command::Wr64,
    Command::Wr80,          Command::Wr96,
    Command::Wr112,         Command::Wr128,
    Command::ModeWrite,     Command::BitWrite,
    Command::TwoAdd8,       Command::Add16,
    Command::PostedWr16,    Command::PostedWr32,
    Command::PostedWr48,    Command::PostedWr64,
    Command::PostedWr80,    Command::PostedWr96,
    Command::PostedWr112,   Command::PostedWr128,
    Command::PostedBitWrite, Command::PostedTwoAdd8,
    Command::PostedAdd16,   Command::ModeRead,
    Command::Rd16,          Command::Rd32,
    Command::Rd48,          Command::Rd64,
    Command::Rd80,          Command::Rd96,
    Command::Rd112,         Command::Rd128,
};

constexpr Command kResponseVariants[] = {
    Command::ReadResponse,     Command::WriteResponse,
    Command::ModeReadResponse, Command::ModeWriteResponse,
    Command::Error,
};

constexpr ErrStat kErrStats[] = {
    ErrStat::Ok,             ErrStat::Unroutable,
    ErrStat::InvalidAddress, ErrStat::InvalidCommand,
    ErrStat::LengthMismatch, ErrStat::CrcFailure,
    ErrStat::ProtocolError,  ErrStat::RegisterFault,
    ErrStat::DramDbe,        ErrStat::VaultFailed,
};

RequestFields random_request_fields(Command cmd, SplitMix64& rng) {
  RequestFields f;
  f.cmd = cmd;
  f.tag = static_cast<Tag>(rng.next_below(u64{spec::kMaxTag} + 1));
  f.addr = rng.next() & spec::kAddrMask;
  f.cub = static_cast<u32>(rng.next_below(8));
  f.slid = static_cast<u32>(rng.next_below(8));
  f.seq = static_cast<u8>(rng.next_below(8));
  f.rtc = static_cast<u8>(rng.next_below(8));
  f.pb = rng.next_below(2) != 0;
  f.frp = static_cast<u8>(rng.next());
  f.rrp = static_cast<u8>(rng.next());
  return f;
}

ResponseFields random_response_fields(Command cmd, SplitMix64& rng) {
  ResponseFields f;
  f.cmd = cmd;
  f.tag = static_cast<Tag>(rng.next_below(u64{spec::kMaxTag} + 1));
  f.cub = static_cast<u32>(rng.next_below(8));
  f.slid = static_cast<u32>(rng.next_below(8));
  f.errstat = kErrStats[rng.next_below(std::size(kErrStats))];
  f.dinv = rng.next_below(2) != 0;
  f.seq = static_cast<u8>(rng.next_below(8));
  f.rtc = static_cast<u8>(rng.next_below(8));
  f.frp = static_cast<u8>(rng.next());
  f.rrp = static_cast<u8>(rng.next());
  return f;
}

std::vector<u64> random_payload(usize words, SplitMix64& rng) {
  std::vector<u64> payload(words);
  for (u64& w : payload) w = rng.next();
  return payload;
}

void flip_random_bits(PacketBuffer& pkt, u32 flips, SplitMix64& rng) {
  const usize used_bits = usize{pkt.flits} * 2 * 64;
  std::set<usize> bits;
  while (bits.size() < flips) bits.insert(rng.next_below(used_bits));
  for (const usize bit : bits) {
    pkt.words[bit / 64] ^= u64{1} << (bit % 64);
  }
}

TEST(PacketRoundTripFuzz, EveryRequestVariantRoundTripsExactly) {
  SplitMix64 rng(0x9e3779b97f4a7c15ull);
  for (const Command cmd : kRequestVariants) {
    SCOPED_TRACE(to_string(cmd));
    for (int iter = 0; iter < 500; ++iter) {
      const RequestFields f = random_request_fields(cmd, rng);
      const std::vector<u64> payload =
          random_payload(request_data_bytes(cmd) / 8, rng);
      PacketBuffer pkt;
      ASSERT_EQ(encode_request(f, payload, pkt), Status::Ok);
      ASSERT_EQ(pkt.flits, request_flits(cmd));
      ASSERT_TRUE(check_crc(pkt));

      RequestFields out;
      ASSERT_EQ(decode_request(pkt, out), Status::Ok);
      EXPECT_EQ(out.cmd, f.cmd);
      EXPECT_EQ(out.lng, pkt.flits);
      EXPECT_EQ(out.tag, f.tag);
      EXPECT_EQ(out.addr, f.addr);
      EXPECT_EQ(out.cub, f.cub);
      EXPECT_EQ(out.slid, f.slid);
      EXPECT_EQ(out.seq, f.seq);
      EXPECT_EQ(out.rtc, f.rtc);
      EXPECT_EQ(out.pb, f.pb);
      EXPECT_EQ(out.frp, f.frp);
      EXPECT_EQ(out.rrp, f.rrp);
      for (usize w = 0; w < payload.size(); ++w) {
        ASSERT_EQ(pkt.payload()[w], payload[w]) << "payload word " << w;
      }

      // Decoded fields re-encode to the byte-identical packet.
      PacketBuffer re;
      ASSERT_EQ(encode_request(out, payload, re), Status::Ok);
      EXPECT_EQ(re, pkt);
    }
  }
}

TEST(PacketRoundTripFuzz, EveryResponseVariantRoundTripsAtEveryLength) {
  // Response length is data-dependent (1 + payload FLITs), so sweep every
  // legal length 1..9 for every response command rather than only the
  // natural read sizes.
  SplitMix64 rng(0xbf58476d1ce4e5b9ull);
  for (const Command cmd : kResponseVariants) {
    SCOPED_TRACE(to_string(cmd));
    for (u32 lng = 1; lng <= spec::kMaxPacketFlits; ++lng) {
      for (int iter = 0; iter < 60; ++iter) {
        const ResponseFields f = random_response_fields(cmd, rng);
        const std::vector<u64> payload =
            random_payload(usize{lng} * 2 - 2, rng);
        PacketBuffer pkt;
        ASSERT_EQ(encode_response(f, payload, pkt), Status::Ok);
        ASSERT_EQ(pkt.flits, lng);
        ASSERT_TRUE(check_crc(pkt));

        ResponseFields out;
        ASSERT_EQ(decode_response(pkt, out), Status::Ok);
        EXPECT_EQ(out.cmd, f.cmd);
        EXPECT_EQ(out.lng, lng);
        EXPECT_EQ(out.tag, f.tag);
        EXPECT_EQ(out.cub, f.cub);
        EXPECT_EQ(out.slid, f.slid);
        EXPECT_EQ(out.errstat, f.errstat);
        EXPECT_EQ(out.dinv, f.dinv);
        EXPECT_EQ(out.seq, f.seq);
        EXPECT_EQ(out.rtc, f.rtc);
        EXPECT_EQ(out.frp, f.frp);
        EXPECT_EQ(out.rrp, f.rrp);

        PacketBuffer re;
        ASSERT_EQ(encode_response(out, payload, re), Status::Ok);
        EXPECT_EQ(re, pkt);
      }
    }
  }
}

TEST(PacketRoundTripFuzz, BitFlipsRejectedForEveryVariant) {
  // 1..3 flipped bits anywhere in the sealed stream — including inside the
  // CRC field — must always be detected for every variant and length.
  SplitMix64 rng(0x94d049bb133111ebull);
  for (const Command cmd : kRequestVariants) {
    SCOPED_TRACE(to_string(cmd));
    for (int iter = 0; iter < 200; ++iter) {
      const RequestFields f = random_request_fields(cmd, rng);
      const std::vector<u64> payload =
          random_payload(request_data_bytes(cmd) / 8, rng);
      PacketBuffer pkt;
      ASSERT_EQ(encode_request(f, payload, pkt), Status::Ok);
      flip_random_bits(pkt, 1 + static_cast<u32>(rng.next_below(3)), rng);
      EXPECT_FALSE(check_crc(pkt));
      RequestFields out;
      EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket);
    }
  }
  for (const Command cmd : kResponseVariants) {
    SCOPED_TRACE(to_string(cmd));
    for (u32 lng = 1; lng <= spec::kMaxPacketFlits; ++lng) {
      for (int iter = 0; iter < 30; ++iter) {
        const ResponseFields f = random_response_fields(cmd, rng);
        const std::vector<u64> payload =
            random_payload(usize{lng} * 2 - 2, rng);
        PacketBuffer pkt;
        ASSERT_EQ(encode_response(f, payload, pkt), Status::Ok);
        flip_random_bits(pkt, 1 + static_cast<u32>(rng.next_below(3)), rng);
        EXPECT_FALSE(check_crc(pkt));
        ResponseFields out;
        EXPECT_EQ(decode_response(pkt, out), Status::MalformedPacket);
      }
    }
  }
}

TEST(PacketRoundTripFuzz, ReservedHeaderBitsNeverLeakIntoFields) {
  // Depositing junk into the reserved request-header bits [60:58] breaks
  // the seal; after resealing, the decoder must return exactly the
  // original field values — reserved bits are dead space, not hidden
  // state.
  SplitMix64 rng(0xd6e8feb86659fd93ull);
  for (const Command cmd : kRequestVariants) {
    SCOPED_TRACE(to_string(cmd));
    for (int iter = 0; iter < 100; ++iter) {
      const RequestFields f = random_request_fields(cmd, rng);
      const std::vector<u64> payload =
          random_payload(request_data_bytes(cmd) / 8, rng);
      PacketBuffer pkt;
      ASSERT_EQ(encode_request(f, payload, pkt), Status::Ok);

      const u64 junk = 1 + rng.next_below(7);
      pkt.header() = deposit(pkt.header(), 58, 3, junk);
      RequestFields out;
      EXPECT_EQ(decode_request(pkt, out), Status::MalformedPacket)
          << "reserved-bit edit must break the CRC seal";

      seal_crc(pkt);
      ASSERT_EQ(decode_request(pkt, out), Status::Ok);
      EXPECT_EQ(out.cmd, f.cmd);
      EXPECT_EQ(out.tag, f.tag);
      EXPECT_EQ(out.addr, f.addr);
      EXPECT_EQ(out.cub, f.cub);
      EXPECT_EQ(out.slid, f.slid);
    }
  }
}

TEST(PacketRoundTripFuzz, FlitCountMismatchRejectedCleanly) {
  // A sealed packet whose buffer flit count disagrees with its LNG field
  // (a torn queue slot) is rejected without touching out-params.
  SplitMix64 rng(0xa5a5a5a55a5a5a5aull);
  for (const Command cmd : kRequestVariants) {
    const RequestFields f = random_request_fields(cmd, rng);
    const std::vector<u64> payload =
        random_payload(request_data_bytes(cmd) / 8, rng);
    PacketBuffer pkt;
    ASSERT_EQ(encode_request(f, payload, pkt), Status::Ok);
    for (u32 flits = 0; flits <= spec::kMaxPacketFlits + 1; ++flits) {
      if (flits == pkt.flits) continue;
      PacketBuffer torn = pkt;
      torn.flits = flits;
      RequestFields out;
      out.tag = 0x1ff;
      EXPECT_EQ(decode_request(torn, out), Status::MalformedPacket);
      EXPECT_EQ(out.tag, 0x1ff) << "rejected decode wrote to out-params";
    }
  }
}

}  // namespace
}  // namespace hmcsim
