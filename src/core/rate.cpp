#include "core/rate.hpp"

#include <algorithm>
#include <limits>

namespace hem {

namespace {

__extension__ typedef unsigned __int128 u128;

constexpr u128 kMax64 = std::numeric_limits<std::uint64_t>::max();

u128 gcd(u128 a, u128 b) noexcept {
  while (b != 0) {
    const u128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

int bit_length(u128 v) noexcept {
  const auto high = static_cast<std::uint64_t>(v >> 64);
  if (high != 0) return 128 - __builtin_clzll(high);
  const auto low = static_cast<std::uint64_t>(v);
  return low != 0 ? 64 - __builtin_clzll(low) : 0;
}

}  // namespace

Rate Rate::reduce(Wide num, Wide den) noexcept {
  if (num == 0) return Rate{};
  if (den == 0) return unbounded();
  const u128 g = gcd(num, den);
  num /= g;
  den /= g;
  if (num <= kMax64 && den <= kMax64)
    return Rate(static_cast<std::uint64_t>(num), static_cast<std::uint64_t>(den));
  // Too wide: drop low bits, the numerator rounding up and the denominator
  // down, so the stored value is never below the exact one.
  for (int shift = std::max(bit_length(num), bit_length(den)) - 64;; ++shift) {
    const u128 n = ((num - 1) >> shift) + 1;  // ceil(num / 2^shift), num >= 1
    const u128 d = den >> shift;
    if (d == 0) return unbounded();  // beyond 2^64 events per time unit
    if (n > kMax64) continue;
    return reduce(n, d);
  }
}

Rate Rate::of(Count events, Time span) noexcept {
  if (events <= 0) return Rate{};
  if (span <= 0 || is_infinite_count(events)) return unbounded();
  return reduce(static_cast<u128>(events), static_cast<u128>(span));
}

Rate operator+(Rate a, Rate b) noexcept {
  if (a.is_unbounded() || b.is_unbounded()) return Rate::unbounded();
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  // Over the least common denominator: each term stays below 2^128.
  const u128 g = gcd(a.den_, b.den_);
  u128 ta = static_cast<u128>(a.num_) * (b.den_ / g);
  u128 tb = static_cast<u128>(b.num_) * (a.den_ / g);
  u128 den = static_cast<u128>(a.den_) * (b.den_ / g);
  if (ta > ~u128{0} - tb) {
    // The sum would wrap: halve all three terms, rounding the numerators up
    // and the denominator down (den >= 2 here, or no term could be this wide).
    ta = (ta >> 1) + (ta & 1);
    tb = (tb >> 1) + (tb & 1);
    den >>= 1;
  }
  return Rate::reduce(ta + tb, den);
}

Rate operator*(Rate r, Count k) noexcept {
  if (k <= 0) return Rate{};
  if (r.is_unbounded()) return r;
  return Rate::reduce(static_cast<u128>(r.num_) * static_cast<u128>(k), r.den_);
}

std::strong_ordering operator<=>(Rate a, Rate b) noexcept {
  if (a.is_unbounded() || b.is_unbounded()) return a.is_unbounded() <=> b.is_unbounded();
  return static_cast<u128>(a.num_) * b.den_ <=> static_cast<u128>(b.num_) * a.den_;
}

double Rate::to_double() const noexcept {
  if (is_unbounded()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::string Rate::str() const {
  if (is_unbounded()) return "unbounded";
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

}  // namespace hem
