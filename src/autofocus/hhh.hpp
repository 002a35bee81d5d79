// Multi-dimensional hierarchical heavy hitters over one pattern side.
//
// AutoFocus-style: (1) find the significant values per dimension with 1-D
// hierarchical passes, (2) enumerate per-record combinations restricted to
// those per-dimension clusters (the key observation of §4.4: significant
// multi-dimensional aggregates project onto significant unidimensional
// ones), (3) keep combinations above the threshold and compress away masses
// already explained by reported descendants.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "autofocus/hierarchy.hpp"

namespace microscope::autofocus {

struct WeightedSide {
  SideKey key;   // a fully-specific leaf, or any other ladder value
  double mass{0.0};
};

struct SideCluster {
  SideKey key;
  double mass{0.0};      // total mass covered
  double residual{0.0};  // mass not explained by reported descendants
};

struct HhhOptions {
  /// Absolute mass threshold for significance.
  double threshold{1.0};
  /// Cap on per-dimension cluster-set size (top by mass; root always kept).
  std::size_t max_clusters_per_dim = 32;
};

/// Reusable buffers of side_hhh. One pattern query makes thousands of
/// calls; handing them one workspace lets them reuse its allocations.
class HhhWorkspace {
 public:
  HhhWorkspace();
  ~HhhWorkspace();

  struct Buffers;  // defined in hhh.cpp

 private:
  friend std::vector<SideCluster> side_hhh(std::span<const WeightedSide>,
                                           const HhhOptions&, HhhWorkspace&);
  std::unique_ptr<Buffers> buf_;
};

/// Compute the significant aggregates of a set of weighted leaves.
/// Returned most-specific first (ascending generality, then descending
/// mass, then SideKey order); every cluster has residual >= threshold.
/// The result depends only on the multiset of leaves, not their order,
/// up to floating-point summation order.
std::vector<SideCluster> side_hhh(std::span<const WeightedSide> leaves,
                                  const HhhOptions& opts);
std::vector<SideCluster> side_hhh(std::span<const WeightedSide> leaves,
                                  const HhhOptions& opts, HhhWorkspace& ws);

}  // namespace microscope::autofocus
