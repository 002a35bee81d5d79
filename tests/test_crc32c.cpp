// CRC32C equivalence and golden vectors.
//
// The v2 wire format trusts crc32c() for frame integrity, and crc32c()
// runs the hardware instruction when the cpu has it. These tests pin both
// halves:
//  * crc32c_hw and crc32c_sw compute the same function bit-for-bit over
//    every length a v2 frame can state (0..65535), every misalignment
//    0..15, and chained seeds — the hardware path processes an alignment
//    prologue, 8-byte words and a byte tail, so small lengths and odd
//    offsets are exactly where a tail-handling bug would hide;
//  * golden vectors from RFC 3720 (iSCSI) pin the polynomial itself, so a
//    "consistent but wrong" pair of implementations cannot pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "collector/wire.hpp"
#include "common/crc32c.hpp"

namespace microscope {
namespace {

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  // Small xorshift so the byte stream has no structure the CRC could be
  // accidentally insensitive to (all-zero buffers hide many bugs).
  std::vector<std::uint8_t> out(n);
  std::uint32_t x = seed | 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out[i] = static_cast<std::uint8_t>(x);
  }
  return out;
}

TEST(Crc32c, GoldenVectorsRfc3720) {
  // CRC32C test vectors from RFC 3720 §B.4 (and the zlib/leveldb suites).
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);

  std::uint8_t buf[32];
  std::memset(buf, 0x00, sizeof(buf));
  EXPECT_EQ(crc32c(buf, 32), 0x8A9136AAu);
  std::memset(buf, 0xFF, sizeof(buf));
  EXPECT_EQ(crc32c(buf, 32), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(buf, 32), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<std::uint8_t>(31 - i);
  EXPECT_EQ(crc32c(buf, 32), 0x113FDB5Cu);
}

TEST(Crc32c, GoldenVectorsHoldOnBothImplementations) {
  const std::string nine = "123456789";
  EXPECT_EQ(crc32c_sw(nine.data(), nine.size()), 0xE3069283u);
  EXPECT_EQ(crc32c_hw(nine.data(), nine.size()), 0xE3069283u);
  EXPECT_EQ(crc32c_sw("", 0), 0x00000000u);
  EXPECT_EQ(crc32c_hw("", 0), 0x00000000u);
}

TEST(Crc32c, HwMatchesSwAllLengths) {
  // Every payload length a v2 frame's u16 length field can state. The
  // software reference extends the previous length's CRC by one byte
  // (seed chaining, pinned by ChainedSeedsCompose), so it costs O(n) in
  // total; the hardware CRC is recomputed from the start at every length.
  const auto buf = pattern_bytes(65535, 0xC0FFEE);
  std::uint32_t sw = crc32c_sw(buf.data(), 0);
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    if (len > 0) sw = crc32c_sw(buf.data() + len - 1, 1, sw);
    const std::uint32_t hw = crc32c_hw(buf.data(), len);
    ASSERT_EQ(sw, hw) << "len=" << len;
  }
}

TEST(Crc32c, HwMatchesSwAllMisalignments) {
  // 16 + 64 bytes so every offset still leaves a full word-loop pass plus
  // a tail; the hardware path's alignment prologue is exercised at every
  // possible starting address mod 16.
  const auto buf = pattern_bytes(16 + 64, 0xBADD1E);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len + off <= buf.size(); ++len) {
      const std::uint32_t sw = crc32c_sw(buf.data() + off, len);
      const std::uint32_t hw = crc32c_hw(buf.data() + off, len);
      ASSERT_EQ(sw, hw) << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32c, ChainedSeedsCompose) {
  // crc(b, n) == crc(b+k, n-k, crc(b, k)) for every split point, and the
  // two implementations may be mixed across the split: a frame check
  // started on a hw decoder and finished on a sw one (or vice versa) must
  // agree. HwMatchesSwAllLengths builds its reference on this.
  const auto buf = pattern_bytes(257, 0x5EED);
  const std::uint32_t whole = crc32c_sw(buf.data(), buf.size());
  for (std::size_t k = 0; k <= buf.size(); k += 13) {
    const std::uint32_t head_sw = crc32c_sw(buf.data(), k);
    const std::uint32_t head_hw = crc32c_hw(buf.data(), k);
    ASSERT_EQ(head_sw, head_hw) << "k=" << k;
    ASSERT_EQ(crc32c_sw(buf.data() + k, buf.size() - k, head_hw), whole)
        << "k=" << k;
    ASSERT_EQ(crc32c_hw(buf.data() + k, buf.size() - k, head_sw), whole)
        << "k=" << k;
  }
}

TEST(Crc32c, V2FrameChecksumMatchesBothImplementations) {
  // The consumer that actually depends on all of this: a v2 wire frame is
  // sync(2) + len(2) + crc32c(4) + payload, and the decoder accepts or
  // rejects the frame on that embedded CRC. Re-derive it from the encoded
  // bytes with each implementation independently.
  std::vector<Packet> pkts(3);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    pkts[i].ipid = static_cast<std::uint16_t>(0x41 + i);
    pkts[i].flow = {make_ipv4(10, 0, 0, 1), make_ipv4(10, 0, 0, 2),
                    static_cast<std::uint16_t>(1000 + i), 443,
                    static_cast<std::uint8_t>(IpProto::kTcp)};
  }
  for (const bool full_flow : {false, true}) {
    std::vector<std::byte> frame;
    collector::encode_frame(frame, collector::Direction::kTx, 7, 9, 123456,
                            pkts, full_flow);
    ASSERT_GT(frame.size(), collector::kFrameHeaderBytes);

    std::uint16_t sync = 0;
    std::uint32_t stored_crc = 0;
    std::memcpy(&sync, frame.data(), 2);
    std::memcpy(&stored_crc, frame.data() + 4, 4);
    EXPECT_EQ(sync, collector::kFrameSync);

    const std::byte* payload = frame.data() + collector::kFrameHeaderBytes;
    const std::size_t n = frame.size() - collector::kFrameHeaderBytes;
    EXPECT_EQ(crc32c_sw(payload, n), stored_crc) << "full_flow=" << full_flow;
    EXPECT_EQ(crc32c_hw(payload, n), stored_crc) << "full_flow=" << full_flow;
  }
}

TEST(Crc32c, FrontDoorMatchesSwReference) {
  // crc32c() picks hw or sw once per process; either way it must compute
  // the reference function.
  const auto buf = pattern_bytes(1024, 0xD15);
  EXPECT_EQ(crc32c(buf.data(), buf.size()), crc32c_sw(buf.data(), buf.size()));
}

}  // namespace
}  // namespace microscope
