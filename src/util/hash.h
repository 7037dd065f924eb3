// FNV-1a (64-bit) over bytes: the repo's one byte-string hash. Snapshot
// checksums, the service's cache keys and bench answer digests all use it.
#pragma once

#include <cstdint>
#include <string_view>

namespace spineless::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;

// `h` continues a previous digest, so fnv1a(b, fnv1a(a)) == fnv1a(a + b).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  for (const char c : bytes)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

}  // namespace spineless::util
