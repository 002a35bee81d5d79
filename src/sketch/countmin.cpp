#include "sketch/countmin.hpp"

#include <algorithm>
#include <cmath>

namespace microscope::sketch {

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth)
    : width_(std::max<std::size_t>(width, 1)),
      depth_(std::clamp<std::size_t>(depth, 1, kMaxDepth)),
      counters_(width_ * depth_, 0.0) {}

void CountMinSketch::add(std::span<const std::uint64_t> keys, double mass,
                         double* est) noexcept {
  constexpr std::size_t kBatch = 8;
  double* cell[kBatch][kMaxDepth] = {};
  for (std::size_t first = 0; first < keys.size(); first += kBatch) {
    const std::size_t n = std::min(kBatch, keys.size() - first);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < depth_; ++r) {
        cell[i][r] = &counters_[r * width_ + slot(r, keys[first + i])];
        __builtin_prefetch(cell[i][r], 1);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      double e = *cell[i][0];
      for (std::size_t r = 1; r < depth_; ++r) e = std::min(e, *cell[i][r]);
      const double updated = e + mass;
      // Raise only the counters below the new estimate; max() stores
      // without a branch to mispredict.
      for (std::size_t r = 0; r < depth_; ++r)
        *cell[i][r] = std::max(*cell[i][r], updated);
      est[first + i] = updated;
    }
  }
}

void CountMinSketch::scale(double factor, double flush_below) noexcept {
  for (double& c : counters_) {
    c *= factor;
    if (c < flush_below) c = 0.0;
  }
}

double CountMinSketch::epsilon() const noexcept {
  return std::exp(1.0) / static_cast<double>(width_);
}

}  // namespace microscope::sketch
