#include "autofocus/hhh.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace microscope::autofocus {
namespace {

using u128 = unsigned __int128;

constexpr std::uint32_t kNone = ~std::uint32_t{0};
// Generalities 0..15: the root has every dimension at the top of its ladder.
constexpr int kGeneralities = 4 + 4 + 2 + 2 + 1 + 2 + 1;

std::uint64_t fib_hash(std::uint64_t x) { return x * 0x9e3779b97f4a7c15ULL; }
std::uint64_t fold(std::uint64_t k) { return k; }
std::uint64_t fold(u128 k) {
  return static_cast<std::uint64_t>(k) ^
         fib_hash(static_cast<std::uint64_t>(k >> 64));
}

/// Power-of-two slot count keeping `n` keys at most half full.
std::size_t slot_count(std::size_t n) {
  return std::bit_ceil(std::max<std::size_t>(16, 2 * n));
}

/// Distinct keys numbered in first-appearance order (open addressing).
template <class Key, class Hash>
class Interner {
 public:
  /// Empties the index and sizes it for at most `max_keys` keys.
  void reset(std::size_t max_keys) {
    keys_.clear();
    slots_.assign(slot_count(max_keys), 0);
    shift_ = 64 - std::countr_zero(slots_.size());
  }
  std::size_t size() const { return keys_.size(); }
  const Key& operator[](std::size_t i) const { return keys_[i]; }

  /// Index of `k`; appends it when new and sets `fresh`.
  std::uint32_t insert(const Key& k, bool& fresh) {
    std::size_t i = fib_hash(Hash{}(k)) >> shift_;
    for (;; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) break;
      if (keys_[slots_[i] - 1] == k) {
        fresh = false;
        return slots_[i] - 1;
      }
    }
    keys_.push_back(k);
    slots_[i] = static_cast<std::uint32_t>(keys_.size());
    fresh = true;
    return slots_[i] - 1;
  }

  std::uint32_t find(const Key& k) const {
    std::size_t i = fib_hash(Hash{}(k)) >> shift_;
    for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1))
      if (keys_[slots_[i] - 1] == k) return slots_[i] - 1;
    return kNone;
  }

 private:
  std::vector<std::uint32_t> slots_;  // key index + 1; 0 = empty
  std::vector<Key> keys_;
  int shift_{60};
};

struct CodeHash {
  std::uint64_t operator()(std::uint64_t code) const { return code; }
};

/// Mass and covered residual per packed combination (open addressing,
/// linear probing). Left empty by drain(), so the next call reuses it
/// without clearing.
template <class Key>
class ComboTable {
 public:
  // Packed keys use at most 63 (127) bits, so all-ones never occurs.
  static constexpr Key kEmpty = ~Key{0};

  struct Slot {
    Key key{kEmpty};
    double mass{0.0};
    double covered{0.0};  // residual of reported descendants
  };

  /// Empties the table and sizes it for `expect` keys, at most 2^16 of
  /// them up front; it grows past that as needed.
  void reset(std::size_t expect) {
    const std::size_t n = slot_count(std::min<std::size_t>(expect, 1 << 16));
    if (size_ != 0 || slots_.size() != n) slots_.assign(n, Slot{});
    shift_ = 64 - std::countr_zero(n);
    size_ = 0;
  }

  /// The slot of `k`, inserted empty if new.
  Slot& operator[](Key k) {
    Slot* s = probe(k);
    if (s->key == kEmpty) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        s = probe(k);
      }
      s->key = k;
      ++size_;
    }
    return *s;
  }

  /// Calls f(slot) for every entry and leaves the table empty.
  template <class F>
  void drain(F&& f) {
    for (Slot& s : slots_) {
      if (s.key == kEmpty) continue;
      f(static_cast<const Slot&>(s));
      s = Slot{};
    }
    size_ = 0;
  }

 private:
  Slot* probe(Key k) {
    std::size_t i = fib_hash(fold(k)) >> shift_;
    while (slots_[i].key != k && slots_[i].key != kEmpty)
      i = (i + 1) & (slots_.size() - 1);
    return &slots_[i];
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    shift_ -= 1;
    for (const Slot& s : old)
      if (s.key != kEmpty) *probe(s.key) = s;
  }

  std::vector<Slot> slots_;
  int shift_{60};
  std::size_t size_{0};
};

/// A cluster and the clusters above it on its dimension's ladder, most
/// specific first, with their levels.
struct Rungs {
  std::uint32_t id[kMaxDimLevels];
  std::uint8_t level[kMaxDimLevels];
  int len{0};
};

/// A combination as per-dimension cluster ids.
using Ids = std::array<std::uint32_t, kSideDims>;

struct IdsHash {
  std::uint64_t operator()(const Ids& ids) const {
    std::uint64_t h = 0;
    for (const std::uint32_t x : ids) h = (h ^ x) * 0x100000001b3ULL;
    return h;
  }
};

/// Where a packed combination keeps each dimension's cluster id.
struct Layout {
  int shift[kSideDims];
  std::uint32_t mask[kSideDims];
  int bits{0};
};

}  // namespace

struct HhhWorkspace::Buffers {
  // Per dimension: ladder values (codes) seen, then the clusters kept.
  struct Dim {
    Interner<std::uint64_t, CodeHash> codes;
    std::vector<double> code_mass;
    std::vector<std::uint8_t> code_level;
    std::vector<std::uint32_t> code_parent;  // next rung up; kNone at the top
    std::vector<std::uint32_t> cluster_of;  // code id -> cluster id
    std::vector<std::uint64_t> cluster_code;
    std::vector<std::uint8_t> cluster_level;
    // up[c][l]: cluster id of c's ancestor at level l (kNone below c's
    // level or where that ancestor is not a cluster); up[c][level(c)] = c.
    std::vector<std::array<std::uint32_t, kMaxDimLevels>> up;
  };

  Interner<SideKey, SideKeyHash> leaves;
  std::vector<double> leaf_mass;
  // Code id of each leaf's own value, [leaf * kSideDims + dim].
  std::vector<std::uint32_t> leaf_code;
  Dim dims[kSideDims];
  std::vector<std::uint32_t> heavy;
  // A leaf's base: its lowest cluster rung in each dimension.
  Interner<Ids, IdsHash> bases;
  std::vector<double> base_mass;
  // Combinations, one table per generality.
  ComboTable<std::uint64_t> narrow[kGeneralities];
  ComboTable<u128> wide[kGeneralities];
  std::vector<std::pair<SideCluster, Ids>> survivors;
};

HhhWorkspace::HhhWorkspace() : buf_(std::make_unique<Buffers>()) {}
HhhWorkspace::~HhhWorkspace() = default;

namespace {

using Dim = HhhWorkspace::Buffers::Dim;

/// Cluster `c` and its ancestors that are clusters, with their levels.
Rungs cluster_ladder(const Dim& dim, std::uint32_t c) {
  Rungs r{};
  for (int l = dim.cluster_level[c]; l < kMaxDimLevels; ++l) {
    if (dim.up[c][l] == kNone) continue;
    r.id[r.len] = dim.up[c][l];
    r.level[r.len++] = static_cast<std::uint8_t>(l);
  }
  return r;
}

/// Calls f(packed key, generality) for every combination of one rung per
/// dimension's ladder.
template <class Key, class F>
void for_each_combination(const Rungs (&r)[kSideDims], const Layout& lay,
                          F&& f) {
  const int (&s)[kSideDims] = lay.shift;
  for (int j0 = 0; j0 < r[0].len; ++j0) {
    const Key k0 = Key{r[0].id[j0]} << s[0];
    const int g0 = r[0].level[j0];
    for (int j1 = 0; j1 < r[1].len; ++j1) {
      const Key k1 = k0 | Key{r[1].id[j1]} << s[1];
      const int g1 = g0 + r[1].level[j1];
      for (int j2 = 0; j2 < r[2].len; ++j2) {
        const Key k2 = k1 | Key{r[2].id[j2]} << s[2];
        const int g2 = g1 + r[2].level[j2];
        for (int j3 = 0; j3 < r[3].len; ++j3) {
          const Key k3 = k2 | Key{r[3].id[j3]} << s[3];
          const int g3 = g2 + r[3].level[j3];
          for (int j4 = 0; j4 < r[4].len; ++j4) {
            const Key k4 = k3 | Key{r[4].id[j4]} << s[4];
            const int g4 = g3 + r[4].level[j4];
            for (int j5 = 0; j5 < r[5].len; ++j5)
              f(k4 | Key{r[5].id[j5]} << s[5], g4 + r[5].level[j5]);
          }
        }
      }
    }
  }
}

/// Per-base combination enumeration, then compression level by level.
/// Covering needs every dimension at least as general, so two distinct
/// combinations of one generality never cover each other: a combination's
/// residual depends only on clusters reported at lower generality, and no
/// order within a level matters. Each level's survivors are reported by
/// descending mass, then SideKey, and subtract their residual from every
/// ancestor before the next level is read.
template <class Key>
std::vector<SideCluster> compress(HhhWorkspace::Buffers& b,
                                  ComboTable<Key> (&tables)[kGeneralities],
                                  const Layout& lay,
                                  const std::size_t (&expect)[kGeneralities],
                                  double threshold) {
  for (int g = 0; g < kGeneralities; ++g) tables[g].reset(expect[g]);
  Rungs r[kSideDims] = {};
  for (std::size_t i = 0; i < b.base_mass.size(); ++i) {
    for (int d = 0; d < kSideDims; ++d)
      r[d] = cluster_ladder(b.dims[d], b.bases[i][static_cast<std::size_t>(d)]);
    const double m = b.base_mass[i];
    for_each_combination<Key>(r, lay,
                              [&](Key k, int g) { tables[g][k].mass += m; });
  }

  std::vector<SideCluster> out;
  for (int g = 0; g < kGeneralities; ++g) {
    b.survivors.clear();
    tables[g].drain([&](const typename ComboTable<Key>::Slot& s) {
      if (!(s.mass >= threshold)) return;
      const double residual = s.mass - s.covered;
      if (!(residual >= threshold)) return;
      Ids id;
      SideKey key;
      for (int d = 0; d < kSideDims; ++d) {
        id[d] = static_cast<std::uint32_t>(s.key >> lay.shift[d]) & lay.mask[d];
        set_dim_code(key, d, b.dims[d].cluster_code[id[d]]);
      }
      b.survivors.push_back({{key, s.mass, residual}, id});
    });
    std::sort(b.survivors.begin(), b.survivors.end(),
              [](const auto& x, const auto& y) {
                if (x.first.mass != y.first.mass)
                  return x.first.mass > y.first.mass;
                return x.first.key < y.first.key;
              });
    for (const auto& [cluster, id] : b.survivors) {
      out.push_back(cluster);
      for (int d = 0; d < kSideDims; ++d)
        r[d] = cluster_ladder(b.dims[d], id[static_cast<std::size_t>(d)]);
      // The only combination of its own generality on these ladders is the
      // cluster itself.
      for_each_combination<Key>(r, lay, [&](Key k, int level) {
        if (level != g) tables[level][k].covered += cluster.residual;
      });
    }
  }
  return out;
}

}  // namespace

std::vector<SideCluster> side_hhh(std::span<const WeightedSide> leaves,
                                  const HhhOptions& opts) {
  HhhWorkspace ws;
  return side_hhh(leaves, opts, ws);
}

std::vector<SideCluster> side_hhh(std::span<const WeightedSide> leaves,
                                  const HhhOptions& opts, HhhWorkspace& ws) {
  if (leaves.empty()) return {};
  HhhWorkspace::Buffers& b = *ws.buf_;
  const double th = opts.threshold;

  // Deduplicate leaves in first-appearance order (sums masses of identical
  // keys).
  b.leaves.reset(leaves.size());
  b.leaf_mass.clear();
  for (const WeightedSide& w : leaves) {
    bool fresh = false;
    const std::uint32_t i = b.leaves.insert(w.key, fresh);
    if (fresh) b.leaf_mass.push_back(0.0);
    b.leaf_mass[i] += w.mass;
  }
  const std::size_t n = b.leaf_mass.size();

  // One distinct leaf: every combination has its mass, so once the leaf is
  // reported every ancestor's residual is exactly 0. At a positive
  // threshold only the leaf remains — unless the cap drops rungs of its
  // ladders, which the general path handles.
  if (n == 1 && th > 0) {
    const double m = b.leaf_mass[0];
    if (!(m >= th)) return {};
    if (opts.max_clusters_per_dim >= static_cast<std::size_t>(kMaxDimLevels))
      return {{b.leaves[0], m, m}};
  }

  // --- 1-D hierarchical passes: the mass of every ladder value. ---
  b.leaf_code.resize(n * kSideDims);
  for (Dim& dim : b.dims) {
    dim.codes.reset(n * kMaxDimLevels);
    dim.code_mass.clear();
    dim.code_level.clear();
    dim.code_parent.clear();
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SideKey& key = b.leaves[i];
    for (int d = 0; d < kSideDims; ++d) {
      Dim& dim = b.dims[d];
      std::uint64_t codes[kMaxDimLevels];
      const int len = dim_ladder(key, d, codes);
      const int level = dim_level(key, d);
      std::uint32_t below = kNone;
      for (int j = 0; j < len; ++j) {
        bool fresh = false;
        const std::uint32_t c = dim.codes.insert(codes[j], fresh);
        if (fresh) {
          dim.code_mass.push_back(0.0);
          dim.code_level.push_back(static_cast<std::uint8_t>(level + j));
          dim.code_parent.push_back(kNone);
        }
        dim.code_mass[c] += b.leaf_mass[i];
        if (below == kNone) {
          b.leaf_code[i * kSideDims + d] = c;
        } else {
          dim.code_parent[below] = c;
        }
        below = c;
      }
    }
  }

  // --- Per-dimension cluster sets: values at or above the threshold, the
  // heaviest max_clusters_per_dim of them (ties by code), plus the root. ---
  Layout lay;
  for (int d = 0; d < kSideDims; ++d) {
    Dim& dim = b.dims[d];
    b.heavy.clear();
    for (std::uint32_t c = 0; c < dim.codes.size(); ++c)
      if (dim.code_mass[c] >= th) b.heavy.push_back(c);
    if (b.heavy.size() > opts.max_clusters_per_dim) {
      std::sort(b.heavy.begin(), b.heavy.end(),
                [&](std::uint32_t x, std::uint32_t y) {
                  if (dim.code_mass[x] != dim.code_mass[y])
                    return dim.code_mass[x] > dim.code_mass[y];
                  return dim.codes[x] < dim.codes[y];
                });
      b.heavy.resize(opts.max_clusters_per_dim);
    }
    const std::uint32_t root = dim.codes.find(dim_code(SideKey{}, d));
    if (root != kNone &&
        std::find(b.heavy.begin(), b.heavy.end(), root) == b.heavy.end())
      b.heavy.push_back(root);
    if (b.heavy.empty()) return {};  // no combination has a cluster here

    dim.cluster_of.assign(dim.codes.size(), kNone);
    dim.cluster_code.clear();
    dim.cluster_level.clear();
    for (const std::uint32_t c : b.heavy) {
      dim.cluster_of[c] = static_cast<std::uint32_t>(dim.cluster_code.size());
      dim.cluster_code.push_back(dim.codes[c]);
      dim.cluster_level.push_back(dim.code_level[c]);
    }
    // Each cluster's ancestors: the clusters on the rungs above it.
    dim.up.resize(b.heavy.size());
    for (std::uint32_t c = 0; c < b.heavy.size(); ++c) {
      dim.up[c].fill(kNone);
      for (std::uint32_t k = b.heavy[c]; k != kNone; k = dim.code_parent[k])
        if (dim.cluster_of[k] != kNone)
          dim.up[c][dim.code_level[k]] = dim.cluster_of[k];
    }
    const int width = std::bit_width(dim.cluster_code.size() - 1);
    lay.shift[d] = lay.bits;
    lay.mask[d] = static_cast<std::uint32_t>((std::uint64_t{1} << width) - 1);
    lay.bits += width;
  }

  // --- Bases. A leaf adds its mass to exactly the combinations of the
  // cluster rungs of its ladders, which are the cluster ancestors of its
  // lowest cluster rungs: leaves sharing those (a base) share every
  // combination, so their masses are merged first. ---
  b.bases.reset(n);
  b.base_mass.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Ids base;
    base.fill(kNone);
    for (int d = 0; d < kSideDims; ++d) {
      const Dim& dim = b.dims[d];
      for (std::uint32_t k = b.leaf_code[i * kSideDims + d];
           k != kNone && base[d] == kNone; k = dim.code_parent[k])
        base[d] = dim.cluster_of[k];
    }
    if (std::find(base.begin(), base.end(), kNone) != base.end()) continue;
    bool fresh = false;
    const std::uint32_t k = b.bases.insert(base, fresh);
    if (fresh) b.base_mass.push_back(0.0);
    b.base_mass[k] += b.leaf_mass[i];
  }

  // --- A bound on the combinations of each generality: the coefficients
  // of the product over dimensions of sum(x^level) over a base's ladder,
  // summed over bases. ---
  std::size_t expect[kGeneralities] = {};
  for (std::size_t i = 0; i < b.bases.size(); ++i) {
    std::size_t poly[kGeneralities] = {1};
    for (int d = 0; d < kSideDims; ++d) {
      const Rungs r =
          cluster_ladder(b.dims[d], b.bases[i][static_cast<std::size_t>(d)]);
      std::size_t next[kGeneralities] = {};
      for (int g = 0; g < kGeneralities; ++g)
        for (int j = 0; j < r.len && poly[g] != 0; ++j)
          next[g + r.level[j]] += poly[g];
      std::copy(std::begin(next), std::end(next), std::begin(poly));
    }
    for (int g = 0; g < kGeneralities; ++g) expect[g] += poly[g];
  }

  if (lay.bits < 64) return compress(b, b.narrow, lay, expect, th);
  if (lay.bits < 128) return compress(b, b.wide, lay, expect, th);
  throw std::length_error("side_hhh: cluster ids exceed a 127-bit key");
}

}  // namespace microscope::autofocus
