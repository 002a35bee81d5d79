#include "autofocus/hierarchy.hpp"

#include <sstream>

namespace microscope::autofocus {

bool NfSet::covers(const NfSet& o) const {
  switch (level) {
    case Level::kAny:
      return true;
    case Level::kType:
      return o.level != Level::kAny && o.type == type;
    case Level::kInstance:
      return o.level == Level::kInstance && o.instance == instance;
  }
  return false;
}

SideKey SideKey::leaf(const FiveTuple& ft, NodeId node, const NfCatalog& cat) {
  SideKey k;
  k.src = Ipv4Prefix::host(ft.src_ip);
  k.dst = Ipv4Prefix::host(ft.dst_ip);
  k.sport = PortRange::exact(ft.src_port);
  k.dport = PortRange::exact(ft.dst_port);
  k.proto = ft.proto;
  k.nf = NfSet::of_instance(node, cat);
  return k;
}

bool SideKey::covers(const SideKey& o) const {
  return src.covers(o.src) && dst.covers(o.dst) && sport.covers(o.sport) &&
         dport.covers(o.dport) && (!proto || (o.proto && *o.proto == *proto)) &&
         nf.covers(o.nf);
}

namespace {

int ip_level_index(std::uint8_t len) {
  for (int i = 0; i < kNumIpLevels; ++i)
    if (kIpLevels[i] == len) return i;
  // Non-ladder lengths count by distance from /32 (shouldn't happen).
  return (32 - len) / 8;
}

int port_level(const PortRange& r) {
  if (r.is_exact()) return 0;
  if (r.is_any()) return 2;
  return 1;
}

std::uint64_t ip_code(std::uint32_t addr, std::uint8_t len) {
  return (static_cast<std::uint64_t>(len) << 32) | (addr & prefix_mask(len));
}

std::uint64_t port_code(const PortRange& r) {
  return (static_cast<std::uint64_t>(r.lo) << 16) | r.hi;
}

std::uint64_t nf_code(const NfSet& s) {
  return (static_cast<std::uint64_t>(s.level) << 48) |
         (static_cast<std::uint64_t>(s.type) << 32) |
         (s.level == NfSet::Level::kInstance ? s.instance : 0);
}

int ip_ladder(const Ipv4Prefix& p, std::uint64_t* out) {
  int n = 0;
  out[n++] = ip_code(p.addr, p.len);
  for (int i = ip_level_index(p.len) + 1; i < kNumIpLevels; ++i)
    out[n++] = ip_code(p.addr, kIpLevels[i]);
  return n;
}

int port_ladder(const PortRange& r, std::uint64_t* out) {
  int n = 0;
  out[n++] = port_code(r);
  if (r.is_exact()) out[n++] = port_code(PortRange::band(r.lo));
  if (!r.is_any()) out[n++] = port_code(PortRange::any());
  return n;
}

}  // namespace

int dim_level(const SideKey& k, int dim) {
  switch (dim) {
    case 0:
      return ip_level_index(k.src.len);
    case 1:
      return ip_level_index(k.dst.len);
    case 2:
      return port_level(k.sport);
    case 3:
      return port_level(k.dport);
    case 4:
      return k.proto ? 0 : 1;
    case 5:
      return static_cast<int>(k.nf.level);
  }
  return 0;
}

int SideKey::generality() const {
  int g = 0;
  for (int d = 0; d < kSideDims; ++d) g += dim_level(*this, d);
  return g;
}

std::size_t SideKeyHash::operator()(const SideKey& k) const noexcept {
  auto mix = [](std::size_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::size_t h = 0;
  h = mix(h, (static_cast<std::uint64_t>(k.src.addr) << 8) | k.src.len);
  h = mix(h, (static_cast<std::uint64_t>(k.dst.addr) << 8) | k.dst.len);
  h = mix(h, (static_cast<std::uint64_t>(k.sport.lo) << 16) | k.sport.hi);
  h = mix(h, (static_cast<std::uint64_t>(k.dport.lo) << 16) | k.dport.hi);
  h = mix(h, k.proto ? *k.proto + 1 : 0);
  h = mix(h, (static_cast<std::uint64_t>(k.nf.level) << 48) |
                 (static_cast<std::uint64_t>(k.nf.type) << 32) | k.nf.instance);
  return h;
}

std::string format_port_range(const PortRange& r) {
  if (r.is_any()) return "*";
  if (r.is_exact()) return std::to_string(r.lo);
  return std::to_string(r.lo) + "-" + std::to_string(r.hi);
}

std::string format_nf_set(const NfSet& s, const NfCatalog& cat) {
  switch (s.level) {
    case NfSet::Level::kInstance:
      return s.instance < cat.node_names.size() ? cat.node_names[s.instance]
                                                : "nf?" + std::to_string(s.instance);
    case NfSet::Level::kType:
      return (s.type < cat.type_names.size() ? cat.type_names[s.type]
                                             : "type?") +
             "*";
    case NfSet::Level::kAny:
      return "*";
  }
  return "?";
}

std::string format_side(const SideKey& k, const NfCatalog& cat) {
  std::ostringstream os;
  os << format_prefix(k.src) << ' ' << format_prefix(k.dst) << ' '
     << (k.proto ? std::to_string(*k.proto) : std::string("*")) << ' '
     << format_port_range(k.sport) << ' ' << format_port_range(k.dport) << ' '
     << format_nf_set(k.nf, cat);
  return os.str();
}

std::uint64_t dim_code(const SideKey& k, int dim) {
  switch (dim) {
    case 0:
      return ip_code(k.src.addr, k.src.len);
    case 1:
      return ip_code(k.dst.addr, k.dst.len);
    case 2:
      return port_code(k.sport);
    case 3:
      return port_code(k.dport);
    case 4:
      return k.proto ? *k.proto + 1 : 0;
    case 5:
      return nf_code(k.nf);
  }
  return 0;
}

void set_dim_code(SideKey& k, int dim, std::uint64_t code) {
  const auto lo32 = static_cast<std::uint32_t>(code);
  switch (dim) {
    case 0:
      k.src = {lo32, static_cast<std::uint8_t>(code >> 32)};
      break;
    case 1:
      k.dst = {lo32, static_cast<std::uint8_t>(code >> 32)};
      break;
    case 2:
      k.sport = {static_cast<std::uint16_t>(code >> 16),
                 static_cast<std::uint16_t>(code)};
      break;
    case 3:
      k.dport = {static_cast<std::uint16_t>(code >> 16),
                 static_cast<std::uint16_t>(code)};
      break;
    case 4:
      if (code == 0) {
        k.proto.reset();
      } else {
        k.proto = static_cast<std::uint8_t>(code - 1);
      }
      break;
    case 5:
      k.nf.level = static_cast<NfSet::Level>(code >> 48);
      k.nf.type = static_cast<std::uint16_t>(code >> 32);
      k.nf.instance =
          k.nf.level == NfSet::Level::kInstance ? lo32 : kInvalidNode;
      break;
  }
}

int dim_ladder(const SideKey& k, int dim,
               std::uint64_t (&out)[kMaxDimLevels]) {
  switch (dim) {
    case 0:
      return ip_ladder(k.src, out);
    case 1:
      return ip_ladder(k.dst, out);
    case 2:
      return port_ladder(k.sport, out);
    case 3:
      return port_ladder(k.dport, out);
    case 4:
      out[0] = dim_code(k, 4);
      if (!k.proto) return 1;
      out[1] = 0;
      return 2;
    case 5: {
      int n = 0;
      for (NfSet s = k.nf;; s = s.generalize()) {
        out[n++] = nf_code(s);
        if (s.level == NfSet::Level::kAny) return n;
      }
    }
  }
  return 0;
}

std::vector<SideKey> generalize_dim(const SideKey& k, int dim) {
  std::uint64_t codes[kMaxDimLevels];
  std::vector<SideKey> out(static_cast<std::size_t>(dim_ladder(k, dim, codes)),
                           k);
  for (std::size_t i = 0; i < out.size(); ++i)
    set_dim_code(out[i], dim, codes[i]);
  return out;
}

}  // namespace microscope::autofocus
