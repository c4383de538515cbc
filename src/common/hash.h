#ifndef CLOUDVIEWS_COMMON_HASH_H_
#define CLOUDVIEWS_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace cloudviews {

/// \brief A 128-bit stable hash value used for plan signatures.
///
/// Signatures identify computation subgraphs across process restarts and
/// across machines, so the hash must be deterministic and platform
/// independent (no std::hash). 128 bits keeps the collision probability
/// negligible at the scale of millions of subgraphs per day (Sec 3).
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Hash128& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }
  bool operator<(const Hash128& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  bool IsZero() const { return hi == 0 && lo == 0; }

  /// Hex rendering, e.g. "0123456789abcdef0123456789abcdef".
  std::string ToHex() const;

  /// Parses the output of ToHex(); returns false on malformed input.
  static bool FromHex(std::string_view hex, Hash128* out);
};

/// FNV-1a 64-bit hash of a byte range, seedable for independent streams.
uint64_t Fnv1a64(const void* data, size_t len,
                 uint64_t seed = 0xcbf29ce484222325ULL);

/// Mixes a 64-bit value (splitmix64 finalizer); good avalanche behaviour.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Incremental hasher producing a Hash128.
///
/// Feed scalar values and strings in a canonical order; the result is
/// independent of platform endianness for the scalar overloads used here
/// (values are serialized to fixed-width little-endian form).
class HashBuilder {
 public:
  HashBuilder() = default;
  explicit HashBuilder(uint64_t seed)
      : a_(0xcbf29ce484222325ULL ^ Mix64(seed)),
        b_(0x9e3779b97f4a7c15ULL + seed) {}

  HashBuilder& Add(uint64_t v);
  HashBuilder& Add(int64_t v) { return Add(static_cast<uint64_t>(v)); }
  HashBuilder& Add(int v) { return Add(static_cast<uint64_t>(v)); }
  HashBuilder& Add(bool v) { return Add(static_cast<uint64_t>(v ? 1 : 0)); }
  HashBuilder& Add(double v);
  HashBuilder& Add(std::string_view s);
  HashBuilder& Add(const Hash128& h) { return Add(h.hi).Add(h.lo); }

  Hash128 Finish() const;

 private:
  uint64_t a_ = 0xcbf29ce484222325ULL;
  uint64_t b_ = 0x9e3779b97f4a7c15ULL;
  uint64_t count_ = 0;
};

/// std::unordered_map support for Hash128 keys.
struct Hash128Hasher {
  size_t operator()(const Hash128& h) const {
    return static_cast<size_t>(h.hi ^ (h.lo * 0x9e3779b97f4a7c15ULL));
  }
};

}  // namespace cloudviews

#endif  // CLOUDVIEWS_COMMON_HASH_H_
