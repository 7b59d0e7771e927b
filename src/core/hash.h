// 64-bit FNV-1a for stable names: executor node seeds, JIT kernel symbols
// and kernel-cache keys. Kernel caches and pinned test hashes hold its
// values, so they must never change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

namespace igc {

/// FNV-1a over the bytes of `s`, continuing from state `h`.
inline uint64_t fnv1a(std::string_view s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

/// FNV-1a over fields, each followed by a 0 byte, so ("ab","c") and
/// ("a","bc") hash differently.
inline uint64_t fnv1a_fields(std::initializer_list<std::string_view> fields) {
  uint64_t h = fnv1a("");  // the offset basis
  for (std::string_view f : fields) {
    h = fnv1a(std::string_view("", 1), fnv1a(f, h));
  }
  return h;
}

/// `v` as 16 lowercase hex digits.
inline std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace igc
