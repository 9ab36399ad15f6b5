// Content addressing for the version store: a 64-bit FNV-1a digest over a
// page's payload (stamp + bytes). The simulation trusts the hash — two pages
// with equal digests are treated as identical content, the same modeling
// shortcut real dedupe firmware takes with a cryptographic digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace insider::version {

using PayloadHash = std::uint64_t;

/// FNV-1a 64-bit over the logical payload a host write carries: the stamp
/// (the simulation's stand-in for content identity) followed by the optional
/// literal bytes. Matches nand::PageView::SamePayload() equality: equal
/// payloads always hash equal.
inline PayloadHash HashPayload(std::uint64_t stamp,
                               std::span<const std::byte> bytes) {
  constexpr std::uint64_t kOffset = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = kOffset;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (stamp >> shift) & 0xFFu;
    h *= kPrime;
  }
  for (std::byte b : bytes) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= kPrime;
  }
  return h;
}

}  // namespace insider::version
