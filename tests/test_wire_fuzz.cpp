// Corruption fault-injection for the hardened wire decoder.
//
// Every test here asserts against an exact oracle: the golden record list
// is known, the injected corruption is known, so the decode must produce a
// predictable record set AND predictable per-category drop counters — not
// merely "didn't crash". The storm test runs MICROSCOPE_FUZZ_TRIALS seeded
// trials (default 1000) and replays deterministically from the seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "microscope/microscope.hpp"
#include "testing/corrupt.hpp"

namespace microscope {
namespace {

using collector::DecodedBatch;
using collector::DecodeError;
using collector::DecodeErrorKind;
using collector::DecodeOptions;
using collector::DecodePolicy;
using collector::DecodeStats;
using collector::Direction;
using collector::WireCallbackDecoder;
using collector::WireFraming;

constexpr DurationNs kTsTolerance = 10'000'000;  // 10 ms
constexpr std::size_t kMaxPayload =
    collector::wire_max_payload_bytes(collector::kDefaultMaxBatchPackets);

bool golden_known(NodeId n) { return n == 1 || n == 2 || n == 3; }
bool golden_full_flow(NodeId n) { return n == 2; }

DecodeOptions framed_options(DecodePolicy policy) {
  DecodeOptions opts;
  opts.policy = policy;
  opts.framing = WireFraming::kFramed;
  opts.max_ts_regression_ns = kTsTolerance;
  return opts;
}

/// Golden stream: ~60 records over nodes {1, 2, 3} (node 2 records full
/// flows on tx), strictly increasing timestamps. Byte values are chosen so
/// the only 0x5AFE sync patterns in the region are real frame starts
/// (CRC bytes aside, which the resync episode semantics make harmless).
struct Golden {
  std::vector<std::byte> bytes;
  std::vector<std::size_t> offsets;
  std::vector<DecodedBatch> recs;
};

Golden build_golden(std::size_t n_records = 60) {
  Golden g;
  for (std::size_t i = 0; i < n_records; ++i) {
    DecodedBatch b;
    b.ts = static_cast<TimeNs>(1000 * (i + 1));
    const std::uint16_t count = static_cast<std::uint16_t>(1 + i % 3);
    b.pkts.assign(count, Packet{});
    for (std::uint16_t k = 0; k < count; ++k)
      b.pkts[k].ipid = static_cast<std::uint16_t>(0x10 + i + k);
    switch (i % 5) {
      case 0:
        b.dir = Direction::kRx;
        b.node = 1;
        break;
      case 1:
        b.dir = Direction::kTx;
        b.node = 1;
        b.peer = 2;
        break;
      case 2:
        b.dir = Direction::kRx;
        b.node = 2;
        break;
      case 3:
        b.dir = Direction::kTx;
        b.node = 2;
        b.peer = 3;
        for (std::uint16_t k = 0; k < count; ++k)
          b.pkts[k].flow = {make_ipv4(10, 0, 0, static_cast<std::uint32_t>(i)),
                            make_ipv4(11, 0, 0, static_cast<std::uint32_t>(i)),
                            static_cast<std::uint16_t>(1000 + i),
                            static_cast<std::uint16_t>(2000 + i),
                            static_cast<std::uint8_t>(IpProto::kUdp)};
        break;
      default:
        b.dir = Direction::kRx;
        b.node = 3;
        break;
    }
    g.offsets.push_back(g.bytes.size());
    collector::encode_frame(g.bytes, b.dir, b.node, b.peer, b.ts, b.pkts,
                            golden_full_flow(b.node) && b.dir == Direction::kTx);
    g.recs.push_back(std::move(b));
  }
  return g;
}

bool same_batch(const DecodedBatch& a, const DecodedBatch& b) {
  if (a.dir != b.dir || a.node != b.node || a.ts != b.ts ||
      a.pkts.size() != b.pkts.size())
    return false;
  if (a.dir == Direction::kTx && a.peer != b.peer) return false;
  const bool flows = a.dir == Direction::kTx && golden_full_flow(a.node);
  for (std::size_t i = 0; i < a.pkts.size(); ++i) {
    if (a.pkts[i].ipid != b.pkts[i].ipid) return false;
    if (flows && !(a.pkts[i].flow == b.pkts[i].flow)) return false;
  }
  return true;
}

struct DecodeResult {
  std::vector<DecodedBatch> recs;
  DecodeStats stats;
};

/// Lenient (or strict) decode of a framed byte region; strict faults
/// propagate as DecodeError.
DecodeResult decode_region(const std::vector<std::byte>& bytes,
                           DecodePolicy policy,
                           std::size_t chunk = std::size_t(-1)) {
  DecodeResult out;
  WireCallbackDecoder dec(
      golden_full_flow,
      [&](const DecodedBatch& b) { out.recs.push_back(b); },
      framed_options(policy), golden_known);
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t take = std::min(chunk, bytes.size() - at);
    dec.feed(std::span<const std::byte>(bytes.data() + at, take));
    at += take;
  }
  dec.finish();
  out.stats = dec.stats();
  return out;
}

/// Assert the stats hold exactly one episode of `expect` (or none) and
/// nothing in any other category.
void expect_only(const DecodeStats& st,
                 const std::optional<DecodeErrorKind>& expect,
                 const std::string& label) {
  for (std::uint8_t k = 0; k < 8; ++k) {
    const auto kind = static_cast<DecodeErrorKind>(k);
    const std::uint64_t want = expect && *expect == kind ? 1u : 0u;
    EXPECT_EQ(st.count(kind), want)
        << label << ": category " << collector::to_string(kind);
  }
}

TEST(WireFuzz, GoldenRoundTrip) {
  const Golden g = build_golden();
  for (const std::size_t chunk : {std::size_t(-1), std::size_t(64),
                                  std::size_t(7), std::size_t(1)}) {
    const DecodeResult r = decode_region(g.bytes, DecodePolicy::kStrict, chunk);
    ASSERT_EQ(r.recs.size(), g.recs.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < g.recs.size(); ++i)
      EXPECT_TRUE(same_batch(r.recs[i], g.recs[i])) << "record " << i;
    EXPECT_EQ(r.stats.dropped(), 0u);
    EXPECT_EQ(r.stats.resync_bytes_skipped, 0u);
  }
}

TEST(WireFuzz, EveryPrefixTruncation) {
  const Golden g = build_golden();
  for (std::size_t cut = 0; cut < g.bytes.size(); ++cut) {
    std::vector<std::byte> buf(g.bytes.begin(),
                               g.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t complete = 0;
    while (complete < g.offsets.size()) {
      const std::size_t end = complete + 1 < g.offsets.size()
                                  ? g.offsets[complete + 1]
                                  : g.bytes.size();
      if (end > cut) break;
      ++complete;
    }
    const bool on_boundary =
        complete >= g.offsets.size() || g.offsets[complete] == cut;

    const DecodeResult r = decode_region(buf, DecodePolicy::kLenient);
    ASSERT_EQ(r.recs.size(), complete) << "cut " << cut;
    for (std::size_t i = 0; i < complete; ++i)
      EXPECT_TRUE(same_batch(r.recs[i], g.recs[i]));
    expect_only(r.stats,
                on_boundary ? std::nullopt
                            : std::optional(DecodeErrorKind::kTruncatedTail),
                "cut " + std::to_string(cut));
  }
}

TEST(WireFuzz, EverySingleByteCorruptionOfOneRecord) {
  const Golden g = build_golden();
  const std::size_t mid = g.offsets.size() / 2;
  const std::size_t f = g.offsets[mid];
  const std::size_t end = g.offsets[mid + 1];
  for (std::size_t pos = f; pos < end; ++pos) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      const std::string label =
          "byte " + std::to_string(pos - f) + " bit " + std::to_string(bit);
      const testing::Corruption c =
          testing::bit_flip_expectation(g.bytes, g.offsets, pos, bit,
                                        kMaxPayload);
      std::vector<std::byte> buf = g.bytes;
      testing::flip_bit(buf, pos, bit);

      const DecodeResult r = decode_region(buf, DecodePolicy::kLenient);
      expect_only(r.stats, c.expect, label);
      ASSERT_EQ(r.recs.size(), g.recs.size() - 1) << label;
      // Exactly the corrupted record is missing.
      for (std::size_t i = 0, j = 0; i < g.recs.size(); ++i) {
        if (i == mid) continue;
        EXPECT_TRUE(same_batch(r.recs[j++], g.recs[i])) << label;
      }

      try {
        decode_region(buf, DecodePolicy::kStrict);
        FAIL() << label << ": strict decode accepted a corrupted stream";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.kind(), *c.expect) << label;
      }
    }
  }
}

TEST(WireFuzz, SemanticFaultTaxonomy) {
  const Golden g = build_golden();
  // Frame 0 is rx, frame 3 is full-flow tx: both header layouts.
  for (const std::size_t frame : {std::size_t(0), std::size_t(3)}) {
    for (const testing::WireField field :
         {testing::WireField::kKind, testing::WireField::kNode,
          testing::WireField::kCount, testing::WireField::kTimestamp}) {
      std::vector<std::byte> buf = g.bytes;
      const DecodeErrorKind expect =
          testing::corrupt_frame_field(buf, g.offsets[frame], field);
      const std::string label = std::string("frame ") + std::to_string(frame) +
                                " field " + collector::to_string(expect);

      const DecodeResult r = decode_region(buf, DecodePolicy::kLenient);
      expect_only(r.stats, expect, label);
      EXPECT_EQ(r.recs.size(), g.recs.size() - 1) << label;

      try {
        decode_region(buf, DecodePolicy::kStrict);
        FAIL() << label << ": strict decode accepted a corrupted stream";
      } catch (const DecodeError& e) {
        EXPECT_EQ(e.kind(), expect) << label;
        // The frame boundary held (CRC re-sealed), so the error names the
        // faulted frame's stream offset; node corruption names the node.
        EXPECT_EQ(e.offset(), g.offsets[frame]) << label;
        if (field == testing::WireField::kNode) {
          EXPECT_EQ(e.node(), 0xDEADBEEFu) << label;
        }
      }
    }
  }
}

TEST(WireFuzz, SplitReassemblyMatrix) {
  const Golden g = build_golden(30);
  // One corrupted variant: a payload bit flip in a middle frame.
  std::vector<std::byte> bad = g.bytes;
  const std::size_t mid = g.offsets[g.offsets.size() / 2];
  testing::flip_bit(bad, mid + collector::kFrameHeaderBytes + 3, 5);
  const DecodeResult bad_whole = decode_region(bad, DecodePolicy::kLenient);

  for (std::size_t i = 0; i < g.bytes.size(); i += 13) {
    for (std::size_t j = i; j < g.bytes.size(); j += 29) {
      // Clean stream: any 3-way split reassembles to the golden records.
      DecodeResult r;
      WireCallbackDecoder dec(
          golden_full_flow,
          [&](const DecodedBatch& b) { r.recs.push_back(b); },
          framed_options(DecodePolicy::kLenient), golden_known);
      dec.feed(std::span<const std::byte>(g.bytes.data(), i));
      dec.feed(std::span<const std::byte>(g.bytes.data() + i, j - i));
      dec.feed(
          std::span<const std::byte>(g.bytes.data() + j, g.bytes.size() - j));
      dec.finish();
      ASSERT_EQ(r.recs.size(), g.recs.size()) << i << "," << j;
      EXPECT_EQ(dec.stats().dropped(), 0u) << i << "," << j;

      // Corrupted stream: chunking must not change the fault accounting.
      DecodeResult rb;
      WireCallbackDecoder decb(
          golden_full_flow,
          [&](const DecodedBatch& b) { rb.recs.push_back(b); },
          framed_options(DecodePolicy::kLenient), golden_known);
      decb.feed(std::span<const std::byte>(bad.data(), i));
      decb.feed(std::span<const std::byte>(bad.data() + i, j - i));
      decb.feed(std::span<const std::byte>(bad.data() + j, bad.size() - j));
      decb.finish();
      EXPECT_EQ(rb.recs.size(), bad_whole.recs.size()) << i << "," << j;
      EXPECT_EQ(decb.stats().bad_crc, bad_whole.stats.bad_crc) << i << "," << j;
      EXPECT_EQ(decb.stats().dropped(), bad_whole.stats.dropped())
          << i << "," << j;
    }
  }
}

/// On storm failure, drop a replay recipe where CI can pick it up as an
/// artifact (set MICROSCOPE_FUZZ_ARTIFACT_DIR; no-op otherwise).
void write_fuzz_artifact(std::uint64_t seed, std::size_t trial,
                         const testing::Corruption& c) {
  const char* dir = std::getenv("MICROSCOPE_FUZZ_ARTIFACT_DIR");
  if (!dir) return;
  std::ofstream os(std::string(dir) + "/fuzz_failure_seed_" +
                   std::to_string(seed) + ".txt");
  os << "MICROSCOPE_FUZZ_SEED=" << seed << "\n"
     << "trial=" << trial << "\n"
     << "op=" << static_cast<int>(c.op) << "\n"
     << "pos=" << c.pos << "\n"
     << "repro: MICROSCOPE_FUZZ_SEED=" << seed
     << " ./tests/test_wire_fuzz"
        " --gtest_filter=WireFuzz.SeededCorruptionStorm\n";
}

TEST(WireFuzz, SeededCorruptionStorm) {
  const Golden g = build_golden();
  std::size_t trials = 1000;
  if (const char* env = std::getenv("MICROSCOPE_FUZZ_TRIALS"))
    trials = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  std::uint64_t seed = 0xC0FFEE;  // CI runs a matrix of seeds via env
  if (const char* env = std::getenv("MICROSCOPE_FUZZ_SEED"))
    seed = std::strtoull(env, nullptr, 0);

  testing::CorruptionFuzzer fuzzer(seed);
  std::uint64_t recovered = 0, recoverable = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::byte> buf = g.bytes;
    const testing::Corruption c =
        fuzzer.apply_random(buf, g.offsets, kMaxPayload);
    const std::string label = "seed " + std::to_string(seed) + " trial " +
                              std::to_string(t) + " op " +
                              std::to_string(static_cast<int>(c.op)) +
                              " pos " + std::to_string(c.pos);

    // Trial body in a lambda so ASSERT-style early returns land here and
    // the failing trial can still be written out as a repro artifact.
    [&] {
      const DecodeResult r = decode_region(buf, DecodePolicy::kLenient);
      expect_only(r.stats, c.expect, label);
      ASSERT_EQ(r.recs.size(), c.expected_records) << label;
      recovered += c.expected_records;
      recoverable += c.expected_records;  // oracle-exact: nothing else lost

      if (c.expect) {
        try {
          decode_region(buf, DecodePolicy::kStrict);
          FAIL() << label << ": strict decode accepted a corrupted stream";
        } catch (const DecodeError& e) {
          EXPECT_EQ(e.kind(), *c.expect) << label;
        }
      } else {
        const DecodeResult rs = decode_region(buf, DecodePolicy::kStrict);
        EXPECT_EQ(rs.recs.size(), c.expected_records) << label;
      }
    }();
    if (::testing::Test::HasFailure()) {
      write_fuzz_artifact(seed, t, c);
      break;
    }
  }
  // Acceptance floor (trivially met when every per-trial assertion held;
  // kept as the explicit paper-facing criterion).
  EXPECT_GE(static_cast<double>(recovered),
            0.99 * static_cast<double>(recoverable));
}

TEST(WireFuzz, RawModeUnknownNodeResync) {
  // Raw framing has no sync marker: recovery is byte-scanning until the
  // next parseable record. Middle record names an unregistered node.
  std::vector<std::byte> bytes;
  std::vector<Packet> pkts(2);
  pkts[0].ipid = 0x2222;
  pkts[1].ipid = 0x2222;
  collector::encode_batch(bytes, Direction::kRx, 1, kInvalidNode,
                          0x4444444444, pkts, false);
  const std::size_t bad_at = bytes.size();
  collector::encode_batch(bytes, Direction::kRx, 99, kInvalidNode,
                          0x4444444445, pkts, false);
  const std::size_t bad_size = bytes.size() - bad_at;
  collector::encode_batch(bytes, Direction::kRx, 1, kInvalidNode,
                          0x4444444446, pkts, false);

  std::vector<DecodedBatch> recs;
  DecodeOptions opts;  // lenient raw
  WireCallbackDecoder dec(
      [](NodeId) { return false; },
      [&](const DecodedBatch& b) { recs.push_back(b); }, opts,
      [](NodeId n) { return n == 1; });
  dec.feed(bytes);
  dec.finish();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].ts, 0x4444444444);
  EXPECT_EQ(recs[1].ts, 0x4444444446);
  EXPECT_EQ(dec.stats().unknown_node, 1u);
  EXPECT_EQ(dec.stats().resync_bytes_skipped, bad_size);
}

TEST(WireFuzz, EncoderRejectsOverlongFrame) {
  std::vector<std::byte> out;
  // 4400 full-flow packets: 19 + 15 * 4400 > 0xFFFF.
  std::vector<Packet> pkts(4400);
  EXPECT_THROW(collector::encode_frame(out, Direction::kTx, 2, 3, 1000, pkts,
                                       /*full_flow=*/true),
               std::length_error);
}

TEST(WireFuzz, FramingSwitchRequiresDrainedDecoder) {
  WireCallbackDecoder dec([](NodeId) { return false; },
                          [](const DecodedBatch&) {});
  std::byte partial[3] = {std::byte{0}, std::byte{1}, std::byte{0}};
  dec.feed(partial);  // buffers an incomplete raw record
  EXPECT_THROW(dec.set_framing(WireFraming::kFramed), std::logic_error);
}

/// Build a small deterministic collector for the file-level tests.
collector::Collector make_store() {
  collector::CollectorOptions copts;
  copts.timestamp_noise_ns = 0;
  copts.ground_truth = false;
  collector::Collector col(copts);
  col.register_node(1, false);
  col.register_node(2, true);
  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<Packet> pkts(1 + i % 2);
    for (auto& p : pkts) {
      p.ipid = static_cast<std::uint16_t>(0x30 + i);
      p.flow = {make_ipv4(10, 1, 1, 1), make_ipv4(10, 2, 2, 2),
                static_cast<std::uint16_t>(5000 + i), 80,
                static_cast<std::uint8_t>(IpProto::kTcp)};
    }
    col.on_rx(1, static_cast<TimeNs>(2000 * i + 100), pkts);
    col.on_tx(2, 1, static_cast<TimeNs>(2000 * i + 900), pkts);
  }
  return col;
}

void expect_stores_equal(const collector::Collector& a,
                         const collector::Collector& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId id = 0; id < a.node_count(); ++id) {
    ASSERT_EQ(a.has_node(id), b.has_node(id));
    if (!a.has_node(id)) continue;
    const auto& x = a.node(id);
    const auto& y = b.node(id);
    ASSERT_EQ(x.rx_batches.size(), y.rx_batches.size());
    ASSERT_EQ(x.tx_batches.size(), y.tx_batches.size());
    EXPECT_EQ(x.rx_ipids, y.rx_ipids);
    EXPECT_EQ(x.tx_ipids, y.tx_ipids);
    EXPECT_EQ(x.tx_flows, y.tx_flows);
    for (std::size_t i = 0; i < x.rx_batches.size(); ++i)
      EXPECT_EQ(x.rx_batches[i].ts, y.rx_batches[i].ts);
    for (std::size_t i = 0; i < x.tx_batches.size(); ++i) {
      EXPECT_EQ(x.tx_batches[i].ts, y.tx_batches[i].ts);
      EXPECT_EQ(x.tx_batches[i].peer, y.tx_batches[i].peer);
    }
  }
}

TEST(WireFuzz, SalvageTruncatedFile) {
  const collector::Collector col = make_store();
  const std::string path = "/tmp/microscope_fuzz_salvage.trace";
  collector::save_trace_stream(col, path);  // v2, global ts order

  // Read back, find the record region's frame boundaries, and cut inside
  // the 30th frame (a crashed dumper's torn tail).
  std::vector<std::byte> raw;
  {
    std::ifstream is(path, std::ios::binary);
    char ch;
    while (is.get(ch)) raw.push_back(static_cast<std::byte>(ch));
  }
  // Header: magic(4) + version(2) + count(4) + 2 * (node 4 + full 1).
  const std::size_t header = 4 + 2 + 4 + 2 * 5;
  std::vector<std::byte> region(raw.begin() + header, raw.end());
  const std::vector<std::size_t> offsets = testing::frame_offsets(region);
  ASSERT_GT(offsets.size(), 31u);
  const std::size_t cut = header + offsets[30] + 5;  // mid-frame
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(raw.data()),
             static_cast<std::streamsize>(cut));
  }

  // Strict load refuses; salvage recovers the complete prefix.
  EXPECT_THROW(collector::load_trace(path), DecodeError);
  const collector::TraceLoadResult got = collector::salvage_trace(path);
  EXPECT_TRUE(got.truncated());
  EXPECT_FALSE(got.complete());
  EXPECT_EQ(got.version, collector::kTraceFileV2);
  EXPECT_EQ(got.decode.records, 30u);
  EXPECT_EQ(got.decode.truncated_tail, 1u);
  std::size_t recovered = 0;
  for (NodeId id = 0; id < got.col.node_count(); ++id)
    if (got.col.has_node(id))
      recovered += got.col.node(id).rx_batches.size() +
                   got.col.node(id).tx_batches.size();
  EXPECT_EQ(recovered, 30u);
  std::remove(path.c_str());
}

TEST(WireFuzz, V1TraceFormatIsByteStableAndLoads) {
  const collector::Collector col = make_store();
  const std::string path = "/tmp/microscope_fuzz_v1.trace";

  // The legacy v1 layout, built by hand: header + node table + raw
  // (unframed) records in node-major rx-then-tx order.
  std::vector<std::byte> expect;
  auto put = [&](const auto& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    expect.insert(expect.end(), p, p + sizeof(v));
  };
  put(collector::kTraceFileMagic);
  put(collector::kTraceFileV1);
  put(std::uint32_t{2});
  put(NodeId{1});
  put(std::uint8_t{0});
  put(NodeId{2});
  put(std::uint8_t{1});
  for (const NodeId id : {NodeId{1}, NodeId{2}}) {
    const auto& t = col.node(id);
    for (const auto& rec : t.rx_batches) {
      std::vector<Packet> pkts(rec.count);
      for (std::uint16_t i = 0; i < rec.count; ++i)
        pkts[i].ipid = t.rx_ipids[rec.begin + i];
      collector::encode_batch(expect, Direction::kRx, id, kInvalidNode, rec.ts,
                              pkts, false);
    }
    for (const auto& rec : t.tx_batches) {
      std::vector<Packet> pkts(rec.count);
      for (std::uint16_t i = 0; i < rec.count; ++i) {
        pkts[i].ipid = t.tx_ipids[rec.begin + i];
        if (t.full_flow) pkts[i].flow = t.tx_flows[rec.begin + i];
      }
      collector::encode_batch(expect, Direction::kTx, id, rec.peer, rec.ts,
                              pkts, t.full_flow);
    }
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(expect.data()),
             static_cast<std::streamsize>(expect.size()));
  }

  // v1 files still load, into the same store as their v2 twin.
  const collector::TraceLoadResult v1 = collector::load_trace_ex(path);
  EXPECT_EQ(v1.version, collector::kTraceFileV1);
  EXPECT_TRUE(v1.complete());
  const std::string path2 = "/tmp/microscope_fuzz_v2.trace";
  collector::save_trace(col, path2);
  const collector::TraceLoadResult v2 = collector::load_trace_ex(path2);
  EXPECT_EQ(v2.version, collector::kTraceFileV2);
  expect_stores_equal(v1.col, col);
  expect_stores_equal(v2.col, col);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

}  // namespace
}  // namespace microscope
