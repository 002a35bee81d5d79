// Generalization hierarchies for pattern aggregation (paper §4.4).
//
// A pattern side (culprit or victim) is a flow aggregate — source/dest IP
// prefix, source/dest port range, protocol set — plus an NF set (instance ->
// type -> any). Every field generalizes along a small fixed ladder, exactly
// the structure AutoFocus [25] uses (the paper notes the port hierarchy is
// the static {exact, 0-1023, 1024-65535, any} split; adaptive ranges are
// future work there and here).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flow.hpp"
#include "common/prefix.hpp"
#include "core/relation.hpp"

namespace microscope::autofocus {

/// IP generalization ladder: /32, /24, /16, /8, /0.
inline constexpr std::uint8_t kIpLevels[] = {32, 24, 16, 8, 0};
inline constexpr int kNumIpLevels = 5;

struct PortRange {
  std::uint16_t lo{0};
  std::uint16_t hi{65535};

  friend auto operator<=>(const PortRange&, const PortRange&) = default;

  static PortRange exact(std::uint16_t p) { return {p, p}; }
  static PortRange band(std::uint16_t p) {
    return p < 1024 ? PortRange{0, 1023} : PortRange{1024, 65535};
  }
  static PortRange any() { return {0, 65535}; }

  bool contains(std::uint16_t p) const { return p >= lo && p <= hi; }
  bool covers(const PortRange& o) const { return lo <= o.lo && hi >= o.hi; }
  bool is_exact() const { return lo == hi; }
  bool is_any() const { return lo == 0 && hi == 65535; }
};

/// Names and types of topology nodes, for NF-set generalization/printing.
struct NfCatalog {
  std::vector<std::string> node_names;      // by node id
  std::vector<std::uint16_t> type_of;       // by node id
  std::vector<std::string> type_names;      // by type id
};

/// NF dimension value: a concrete instance, all instances of a type, or any.
/// Default-constructed = kAny, so a default SideKey is the all-covering root.
struct NfSet {
  enum class Level : std::uint8_t { kInstance = 0, kType = 1, kAny = 2 };
  Level level{Level::kAny};
  NodeId instance{kInvalidNode};   // valid at kInstance
  std::uint16_t type{0};           // valid at kInstance/kType

  friend auto operator<=>(const NfSet&, const NfSet&) = default;

  static NfSet of_instance(NodeId id, const NfCatalog& cat) {
    return {Level::kInstance, id, cat.type_of.at(id)};
  }
  NfSet generalize() const {
    if (level == Level::kInstance) return {Level::kType, kInvalidNode, type};
    return {Level::kAny, kInvalidNode, 0};
  }
  bool covers(const NfSet& o) const;
};

/// One side of a pattern: flow aggregate + NF set.
struct SideKey {
  Ipv4Prefix src{Ipv4Prefix::any()};
  Ipv4Prefix dst{Ipv4Prefix::any()};
  PortRange sport{PortRange::any()};
  PortRange dport{PortRange::any()};
  std::optional<std::uint8_t> proto{};
  NfSet nf{};

  friend auto operator<=>(const SideKey&, const SideKey&) = default;

  /// The fully-specific side key of a concrete packet at a concrete NF.
  static SideKey leaf(const FiveTuple& ft, NodeId node, const NfCatalog& cat);

  /// True when this aggregate covers `o` in every dimension.
  bool covers(const SideKey& o) const;

  /// Sum of generalization levels (0 = fully specific); used to order
  /// patterns by specificity during compression.
  int generality() const;
};

struct SideKeyHash {
  std::size_t operator()(const SideKey& k) const noexcept;
};

std::string format_port_range(const PortRange& r);
std::string format_nf_set(const NfSet& s, const NfCatalog& cat);
std::string format_side(const SideKey& k, const NfCatalog& cat);

/// Number of dimensions in a side key (for ancestor enumeration).
inline constexpr int kSideDims = 6;

/// Rungs of the longest per-dimension ladder (the IP one). Levels run
/// 0..kMaxDimLevels-1 in every dimension.
inline constexpr int kMaxDimLevels = kNumIpLevels;

/// Per-dimension value codes: a compact (level, value) encoding used by the
/// 1-D heavy-hitter passes. Dimension index order:
/// 0 srcIP, 1 dstIP, 2 sport, 3 dport, 4 proto, 5 nf.
std::uint64_t dim_code(const SideKey& k, int dim);

/// Sets dimension `dim` of `k` to the value `code` (a dim_code()) names.
void set_dim_code(SideKey& k, int dim, std::uint64_t code);

/// Generalization level of `k` along one dimension (0 = most specific).
/// SideKey::generality() is its sum over the dimensions.
int dim_level(const SideKey& k, int dim);

/// The dim_code()s of `k`'s ancestors along one dimension's ladder, most
/// specific first: `k`'s own value, then one per rung up to the root.
/// Writes them to `out` without allocating and returns how many; the i-th
/// has level dim_level(k, dim) + i.
int dim_ladder(const SideKey& k, int dim, std::uint64_t (&out)[kMaxDimLevels]);

/// All ancestors of a leaf value along one dimension's ladder, most
/// specific first (the leaf itself is included; the root always last).
std::vector<SideKey> generalize_dim(const SideKey& k, int dim);

}  // namespace microscope::autofocus
