// CRC32C (Castagnoli) over byte ranges.
//
// Integrity check for the v2 framed trace format (collector/wire.hpp): each
// record frame carries a CRC32C of its payload so a torn write, a flipped
// bit, or a mid-record truncation is detected at the frame where it
// happened instead of silently desynchronizing the decode.
//
// Two implementations:
//  * crc32c_hw — SSE4.2 `crc32` (x86) / ARMv8 CRC32C instructions, ~an
//    order of magnitude faster than the table walk on whole frames;
//  * crc32c_sw — portable table-driven reference.
// Both compute the same function bit-for-bit (CRC32C is fully specified);
// crc32c() picks the hardware path when the cpu has it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace microscope {

/// CRC32C of `len` bytes at `data`. `seed` chains partial computations:
/// crc32c(b, n) == crc32c(b + k, n - k, crc32c(b, k)). Uses the hardware
/// instruction when crc32c_hw_supported(), decided once per process.
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Table-driven software reference. Always available.
std::uint32_t crc32c_sw(const void* data, std::size_t len,
                        std::uint32_t seed = 0);

/// Hardware-instruction implementation. Falls back to crc32c_sw when the
/// cpu lacks the instruction or the build compiled it out — callers may use
/// it unconditionally; check crc32c_hw_supported() to know which ran.
std::uint32_t crc32c_hw(const void* data, std::size_t len,
                        std::uint32_t seed = 0);

/// True when crc32c_hw really executes the cpu instruction.
bool crc32c_hw_supported();

}  // namespace microscope
