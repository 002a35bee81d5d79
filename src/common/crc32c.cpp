#include "common/crc32c.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define MICROSCOPE_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define MICROSCOPE_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace microscope {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

#if defined(MICROSCOPE_CRC32C_X86)

// Byte prologue up to 8-byte alignment, then 8 bytes per crc32 issue, then
// a byte tail. The instruction computes the identical reflected-Castagnoli
// update as the table walk, so hw and sw agree on every (data, len, seed).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw_impl(
    const unsigned char* p, std::size_t len, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  std::uint64_t crc64 = crc;
  while (len >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    crc64 = _mm_crc32_u64(crc64, v);
    p += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (len > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  return ~crc;
}

bool crc32c_hw_impl_available() { return __builtin_cpu_supports("sse4.2"); }

#elif defined(MICROSCOPE_CRC32C_ARM)

std::uint32_t crc32c_hw_impl(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, *p++);
    --len;
  }
  while (len >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    crc = __crc32cd(crc, v);
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = __crc32cb(crc, *p++);
    --len;
  }
  return ~crc;
}

bool crc32c_hw_impl_available() { return true; }

#endif

}  // namespace

std::uint32_t crc32c_sw(const void* data, std::size_t len,
                        std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i)
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFFu];
  return ~crc;
}

std::uint32_t crc32c_hw(const void* data, std::size_t len,
                        std::uint32_t seed) {
#if defined(MICROSCOPE_CRC32C_X86) || defined(MICROSCOPE_CRC32C_ARM)
  if (crc32c_hw_impl_available())
    return crc32c_hw_impl(static_cast<const unsigned char*>(data), len, seed);
#endif
  return crc32c_sw(data, len, seed);
}

bool crc32c_hw_supported() {
#if defined(MICROSCOPE_CRC32C_X86) || defined(MICROSCOPE_CRC32C_ARM)
  return crc32c_hw_impl_available();
#else
  return false;
#endif
}

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed) {
#if defined(MICROSCOPE_CRC32C_X86) || defined(MICROSCOPE_CRC32C_ARM)
  static const bool hw = crc32c_hw_supported();  // cpu probed once
  if (hw)
    return crc32c_hw_impl(static_cast<const unsigned char*>(data), len, seed);
#endif
  return crc32c_sw(data, len, seed);
}

}  // namespace microscope
