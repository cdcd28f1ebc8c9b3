#pragma once

/// \file rate.hpp
/// Exact long-run event rate of a stream, in events per time unit.
///
/// HeRTA's unified treatment of event-bound functions defines a stream's
/// utilization as the slope of its event-bound function.  For a subadditive
/// eta+ that slope is
///
///   r = lim_{dt -> inf} eta+(dt) / dt = inf_{dt > 0} eta+(dt) / dt   (Fekete)
///
/// so r * dt <= eta+(dt) at every window and eta+(dt) - r * dt stays
/// bounded.  Every event model fixes its rate at construction from its
/// operands (EventModel::rate); overload checks compare these fractions
/// exactly instead of sampling eta+ at some horizon.
///
/// A Rate is a reduced fraction num/den of 64-bit unsigned integers, or
/// `unbounded` when eta+ is infinite at some finite window.  Arithmetic uses
/// 128-bit intermediates; a result whose reduced form does not fit in 64
/// bits is rounded UP, so an overload verdict can only turn conservative.

#include <compare>
#include <cstdint>
#include <string>

#include "core/time.hpp"

namespace hem {

class Rate {
 public:
  /// Zero: a stream with finitely many events.
  constexpr Rate() noexcept = default;

  /// `events` per `span` time units.  Zero when events <= 0; unbounded when
  /// events > 0 arrive in a span <= 0 (or an infinite event count).
  [[nodiscard]] static Rate of(Count events, Time span) noexcept;

  /// eta+ is infinite at some finite window.
  [[nodiscard]] static constexpr Rate unbounded() noexcept { return Rate(1, 0); }

  [[nodiscard]] constexpr bool is_unbounded() const noexcept { return den_ == 0; }
  [[nodiscard]] constexpr bool is_zero() const noexcept { return num_ == 0; }
  [[nodiscard]] constexpr std::uint64_t num() const noexcept { return num_; }
  [[nodiscard]] constexpr std::uint64_t den() const noexcept { return den_; }

  /// Sum of two rates (OR-combination); unbounded if either is.
  friend Rate operator+(Rate a, Rate b) noexcept;
  /// Rate scaled by a non-negative integer (demand C * r, grouped events).
  friend Rate operator*(Rate r, Count k) noexcept;

  friend constexpr bool operator==(Rate a, Rate b) noexcept = default;
  friend std::strong_ordering operator<=>(Rate a, Rate b) noexcept;

  /// Nearest double; +infinity when unbounded.
  [[nodiscard]] double to_double() const noexcept;

  /// "num/den", "num" for integers, or "unbounded".
  [[nodiscard]] std::string str() const;

 private:
  __extension__ typedef unsigned __int128 Wide;

  constexpr Rate(std::uint64_t num, std::uint64_t den) noexcept : num_(num), den_(den) {}

  /// Reduce num/den into the canonical 64-bit form, rounding up on overflow.
  [[nodiscard]] static Rate reduce(Wide num, Wide den) noexcept;

  // Canonical forms: zero is 0/1, unbounded is 1/0, everything else is
  // reduced, so the defaulted equality is value equality.
  std::uint64_t num_ = 0;
  std::uint64_t den_ = 1;
};

}  // namespace hem
