#include "common/hash.h"

#include <array>
#include <cstdio>

namespace cloudviews {

uint64_t Fnv1a64(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

HashBuilder& HashBuilder::Add(uint64_t v) {
  // Two independent accumulation lanes for the two output words.
  a_ = Mix64(a_ ^ v);
  b_ = Mix64(b_ + v + (count_ << 1 | 1));
  ++count_;
  return *this;
}

HashBuilder& HashBuilder::Add(double v) {
  uint64_t bits;
  // Canonicalize -0.0 so logically equal predicates hash identically.
  if (v == 0.0) v = 0.0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Add(bits);
}

HashBuilder& HashBuilder::Add(std::string_view s) {
  // The two lanes are Fnv1a64(s) under two seeds, computed in one pass.
  uint64_t fa = 0xcbf29ce484222325ULL;
  uint64_t fb = 0x84222325cbf29ce4ULL;
  for (unsigned char c : s) {
    fa = (fa ^ c) * 0x100000001b3ULL;
    fb = (fb ^ c) * 0x100000001b3ULL;
  }
  a_ = Mix64(a_ ^ fa);
  b_ = Mix64(b_ + fb);
  Add(static_cast<uint64_t>(s.size()));
  return *this;
}

Hash128 HashBuilder::Finish() const {
  Hash128 h;
  h.hi = Mix64(a_ ^ (count_ * 0xff51afd7ed558ccdULL));
  h.lo = Mix64(b_ + count_);
  return h;
}

std::string Hash128::ToHex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

namespace {
bool ParseHex64(std::string_view s, uint64_t* out) {
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}
}  // namespace

bool Hash128::FromHex(std::string_view hex, Hash128* out) {
  if (hex.size() != 32) return false;
  return ParseHex64(hex.substr(0, 16), &out->hi) &&
         ParseHex64(hex.substr(16, 16), &out->lo);
}

}  // namespace cloudviews
