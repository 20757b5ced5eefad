// Shared SWAR primitives of the encode and decode kernels and the trace
// writer. These are subtle enough that two private copies would
// silently diverge; every user includes this single definition.
#pragma once

#include <cstdint>

namespace dbi::engine {

/// Per-byte popcount: byte k of the result = popcount(byte k of v).
constexpr std::uint64_t byte_popcount(std::uint64_t v) {
  v -= (v >> 1) & 0x5555555555555555ULL;
  v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
  return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/// Transposes a u64 viewed as an 8x8 bit matrix (row k = byte k):
/// result byte r bit k = input byte k bit r (Hacker's Delight 7-2).
constexpr std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace dbi::engine
