// Conservative-update count-min sketch (bounded-memory aggregation, §4.4
// at internet scale).
//
// A depth x width matrix of decayed mass counters. Point updates touch one
// counter per row (conservative update: only counters that would fall
// below the new minimum estimate are raised, which provably never
// increases — and in practice much reduces — the classic CM overestimate).
// Point queries return the minimum across rows. Guarantees, for total
// inserted mass N and width w:
//
//     true <= estimate          (always — deletions never happen; decay
//                                scales truth and estimate alike)
//     estimate <= true + (e/w)·N   with probability >= 1 - e^{-depth}
//
// Decay is a multiplicative scale of every counter (the lean-algorithm
// "periodic sketch halving": with decay 0.5 the per-window scale is a
// literal halving). Scaling commutes with the min/max structure, so the
// error bound holds over the *decayed* total mass at any point in time.
//
// Memory is fixed at construction: width * depth * sizeof(double), no
// per-key state of any kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace microscope::sketch {

class CountMinSketch {
 public:
  /// Most rows a sketch has: one per row seed.
  static constexpr std::size_t kMaxDepth = 8;

  /// `width` counters per row, `depth` rows: width clamped to >= 1, depth
  /// to [1, kMaxDepth].
  CountMinSketch(std::size_t width, std::size_t depth);

  /// Conservative update of each key of `keys` by `mass`, in order; writes
  /// key i's new estimate to est[i]. Each key's row slots are computed once
  /// and every counter of the batch is prefetched before the first update;
  /// the updates then run in key order, so the result equals one add() per
  /// key even where keys repeat or share a counter. `key`s are any
  /// well-mixed 64-bit key hashes.
  void add(std::span<const std::uint64_t> keys, double mass,
           double* est) noexcept;

  /// Conservative update of one key: add `mass` to its estimate; returns
  /// the new estimate.
  double add(std::uint64_t key, double mass) noexcept {
    double est = 0.0;
    add({&key, 1}, mass, &est);
    return est;
  }

  /// Point query: min across rows (>= the key's true decayed mass).
  double estimate(std::uint64_t key) const noexcept {
    double est = row_counter(0, key);
    for (std::size_t r = 1; r < depth_; ++r)
      est = std::min(est, row_counter(r, key));
    return est;
  }

  /// Multiply every counter by `factor` (per-window decay / halving).
  /// Counters that fall below `flush_below` snap to zero so ancient keys
  /// cannot smear sub-epsilon dust over the whole table forever.
  void scale(double factor, double flush_below = 1e-12) noexcept;

  std::size_t width() const noexcept { return width_; }
  std::size_t depth() const noexcept { return depth_; }
  /// Counter-array footprint (the fixed part of the budget).
  std::size_t memory_bytes() const noexcept {
    return counters_.size() * sizeof(double);
  }
  /// The e/w factor of the error bound: estimate <= true + epsilon * N.
  double epsilon() const noexcept;

 private:
  std::size_t slot(std::size_t row, std::uint64_t key) const noexcept {
    // Per-row mix with fixed odd seeds, then a 128-bit multiply maps the
    // mixed hash uniformly onto [0, width) without modulo bias.
    std::uint64_t x = key ^ kRowSeeds[row];
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(x) * width_) >> 64);
  }
  double row_counter(std::size_t row, std::uint64_t key) const noexcept {
    return counters_[row * width_ + slot(row, key)];
  }

  static constexpr std::uint64_t kRowSeeds[kMaxDepth] = {
      0x9e3779b97f4a7c15ULL, 0xbf58476d1ce4e5b9ULL, 0x94d049bb133111ebULL,
      0x2545f4914f6cdd1dULL, 0xd6e8feb86659fd93ULL, 0xa0761d6478bd642fULL,
      0xe7037ed1a0b428dbULL, 0x8ebc6af09c88c6e3ULL};

  std::size_t width_;
  std::size_t depth_;
  std::vector<double> counters_;  // row-major, width_ * depth_
};

}  // namespace microscope::sketch
