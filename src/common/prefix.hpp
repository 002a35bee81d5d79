// IPv4 prefix arithmetic for the AutoFocus hierarchies.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace microscope {

/// An IPv4 prefix: `addr` with the top `len` bits significant.
struct Ipv4Prefix {
  std::uint32_t addr{0};
  std::uint8_t len{0};  // 0 (everything) .. 32 (a host)

  friend auto operator<=>(const Ipv4Prefix&, const Ipv4Prefix&) = default;

  /// The /32 prefix of a single address.
  static constexpr Ipv4Prefix host(std::uint32_t ip) { return {ip, 32}; }

  /// The zero-length prefix matching all addresses.
  static constexpr Ipv4Prefix any() { return {0, 0}; }

  /// Parent prefix (one bit shorter). Undefined for len == 0.
  Ipv4Prefix parent() const;

  /// True if `ip` falls inside this prefix.
  bool contains(std::uint32_t ip) const;

  /// True if `other` is this prefix or a sub-prefix of it.
  bool covers(const Ipv4Prefix& other) const;
};

std::string format_prefix(const Ipv4Prefix& p);

/// Network mask for a prefix length (host order). len in [0, 32].
constexpr std::uint32_t prefix_mask(std::uint8_t len) {
  return len == 0 ? 0u : (~0u << (32 - len));
}

struct Ipv4PrefixHash {
  std::size_t operator()(const Ipv4Prefix& p) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(p.addr) << 8) | p.len;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

}  // namespace microscope
