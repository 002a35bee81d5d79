// §6.2 runtime overhead: cost of the collector on the NF critical path.
//
// The paper measures 0.88%-2.33% peak-throughput degradation from its DPDK
// instrumentation. Here we measure the real CPU cost of the collector hooks
// per batch/packet (direct store and ring+dumper paths) and report the
// implied degradation at each NF type's peak rate.
#include "bench_main.hpp"

#include "common/crc32c.hpp"
#include "microscope/microscope.hpp"

using namespace microscope;

namespace {

std::vector<Packet> make_batch(std::size_t n) {
  std::vector<Packet> out(n);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].uid = i;
    out[i].ipid = static_cast<std::uint16_t>(rng.next_u64());
    out[i].flow.src_ip = static_cast<std::uint32_t>(rng.next_u64());
    out[i].flow.dst_ip = static_cast<std::uint32_t>(rng.next_u64());
    out[i].flow.src_port = static_cast<std::uint16_t>(rng.next_u64());
    out[i].flow.dst_port = 443;
    out[i].flow.proto = 6;
  }
  return out;
}

void BM_DirectCollector_RxTx(benchmark::State& state) {
  const auto batch = make_batch(static_cast<std::size_t>(state.range(0)));
  collector::CollectorOptions opts;
  opts.ground_truth = false;  // a real deployment has no sidecar
  collector::Collector col(opts);
  col.register_node(1, false);
  TimeNs ts = 0;
  for (auto _ : state) {
    col.on_rx(1, ts, batch);
    col.on_tx(1, 2, ts + 100, batch);
    ts += 1000;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_DirectCollector_RxTx)->Arg(8)->Arg(32);

void BM_RingCollector_RxTx(benchmark::State& state) {
  const auto batch = make_batch(static_cast<std::size_t>(state.range(0)));
  collector::RingCollector::Options opts;
  opts.ring_bytes = 1 << 24;
  opts.store.ground_truth = false;
  collector::RingCollector col(opts);
  col.register_node(1, false);
  TimeNs ts = 0;
  for (auto _ : state) {
    col.on_rx(1, ts, batch);
    col.on_tx(1, 2, ts + 100, batch);
    ts += 1000;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_RingCollector_RxTx)->Arg(8)->Arg(32);

// CRC32C kernel cost, hardware instruction vs table-driven software, over
// the frame sizes the v2 wire format actually produces (a 32-packet batch
// frame is ~1KB). bytes_per_second is the headline; the hw/sw ratio at
// equal size is the hardware-instruction win reported in EXPERIMENTS.md.
void BM_Crc32cHw(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(len);
  for (std::size_t i = 0; i < len; ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c_hw(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
  state.counters["hw_instruction"] = crc32c_hw_supported() ? 1.0 : 0.0;
}
BENCHMARK(BM_Crc32cHw)->Arg(64)->Arg(1024)->Arg(4096);

void BM_Crc32cSw(benchmark::State& state) {
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> buf(len);
  for (std::size_t i = 0; i < len; ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131 + 17);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = crc32c_sw(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(len));
}
BENCHMARK(BM_Crc32cSw)->Arg(64)->Arg(1024)->Arg(4096);

void BM_WireEncode(benchmark::State& state) {
  const auto batch = make_batch(32);
  std::vector<std::byte> buf;
  for (auto _ : state) {
    buf.clear();
    collector::encode_batch(buf, collector::Direction::kTx, 1, 2, 123, batch,
                            false);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WireEncode);

/// Estimated peak-throughput degradation per NF type: collector cost per
/// packet vs per-packet service time (the paper's 0.88%-2.33% range).
void BM_ImpliedDegradation(benchmark::State& state) {
  const auto batch = make_batch(32);
  collector::CollectorOptions opts;
  opts.ground_truth = false;
  collector::Collector col(opts);
  col.register_node(1, false);
  TimeNs ts = 0;
  double total_ns = 0;
  std::uint64_t pkts = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    col.on_rx(1, ts, batch);
    col.on_tx(1, 2, ts + 100, batch);
    const auto t1 = std::chrono::steady_clock::now();
    total_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    pkts += 64;
    ts += 1000;
  }
  const double per_pkt = pkts ? total_ns / static_cast<double>(pkts) : 0.0;
  state.counters["collector_ns_per_pkt"] = per_pkt;
  // Service costs from the Fig. 10 configuration.
  state.counters["degradation_pct_nat"] = per_pkt / 550.0 * 100.0;
  state.counters["degradation_pct_fw"] = per_pkt / 600.0 * 100.0;
  state.counters["degradation_pct_mon"] = per_pkt / 450.0 * 100.0;
  state.counters["degradation_pct_vpn"] = per_pkt / 898.0 * 100.0;
}
BENCHMARK(BM_ImpliedDegradation)->Iterations(200000);

}  // namespace

MICROSCOPE_BENCH_MAIN("overhead_collector");
