#include "common/prefix.hpp"

#include <sstream>

#include "common/flow.hpp"

namespace microscope {

Ipv4Prefix Ipv4Prefix::parent() const {
  const std::uint8_t plen = static_cast<std::uint8_t>(len - 1);
  return {addr & prefix_mask(plen), plen};
}

bool Ipv4Prefix::contains(std::uint32_t ip) const {
  return (ip & prefix_mask(len)) == (addr & prefix_mask(len));
}

bool Ipv4Prefix::covers(const Ipv4Prefix& other) const {
  return other.len >= len && contains(other.addr);
}

std::string format_prefix(const Ipv4Prefix& p) {
  if (p.len == 0) return "*";
  std::ostringstream os;
  os << format_ipv4(p.addr & prefix_mask(p.len)) << '/' << static_cast<int>(p.len);
  return os.str();
}

}  // namespace microscope
