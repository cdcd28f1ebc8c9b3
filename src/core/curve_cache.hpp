#pragma once

/// \file curve_cache.hpp
/// Lock-free dense memo table for lazily evaluated curve samples.
///
/// Event-model nodes memoise delta-(n) / delta+(n) samples indexed by
/// n - 2.  The nodes are shared DAG vertices queried from every engine
/// worker thread at once, so the table must support concurrent reads and
/// insert-if-absent writes without serialising the (recursive, potentially
/// expensive) raw curve evaluation behind a lock.  Three properties of the
/// workload make a very simple design sufficient:
///
///   * values are pure functions of the index — two threads racing on the
///     same uncached index compute the SAME value, so duplicated work is
///     benign and "last writer wins" is correct;
///   * every value is a single non-negative 64-bit integer — one atomic
///     slot holds the complete payload, no slot ever needs a two-word
///     update;
///   * the index space is dense and grows from zero — a segmented array
///     with geometrically growing, individually published segments gives
///     O(1) wait-free lookup with bounded (2x) over-allocation and, unlike
///     a resizable vector, never moves published slots.
///
/// The table therefore is an array of `kSegments` atomically published
/// segments; segment s holds `kSeg0 << s` slots.  Readers take one acquire
/// load of the segment pointer plus one relaxed load of the slot; writers
/// allocate missing segments with a compare-exchange (the loser frees its
/// copy) and publish values with a single exchange.  No mutex, no spin —
/// every operation is wait-free apart from the one-time segment allocation.
///
/// A slot holds the bitwise complement of its value, so an all-zero slot is
/// unset and a segment needs no initialising pass.  Segments of at least
/// `kMapBytes` are mapped straight from the kernel, whose fresh pages read
/// as zero and take memory only once written: a galloping search that
/// probes a few far indices commits a few pages, not whole segments of up
/// to 16 MiB, so an analysis's peak memory does not hinge on which node a
/// divergent busy window happens to query first.
///
/// Indices at or beyond `kCapacity` are not stored: `load` reports them
/// absent and `store` returns `kOverflow`.  Galloping searches probe indices
/// up to 2^24; bounding the table keeps a divergent probe from committing
/// gigabytes (the previous dense-vector design had the same cutoff).

#include <atomic>
#include <cstddef>

#include "core/time.hpp"

namespace hem {

class AtomicCurveCache {
 public:
  /// Sentinel for "not yet computed".  Curve samples are always >= 0, so -1
  /// can never be a legitimate value.
  static constexpr Time kUnset = -1;

  static constexpr std::size_t kSegments = 16;
  static constexpr std::size_t kSeg0 = 64;  ///< slots in segment 0
  /// Total slots: kSeg0 * (2^kSegments - 1) ~ 4.2M samples (~33 MB if a
  /// node is ever queried that densely; segments materialise on demand).
  static constexpr std::size_t kCapacity = kSeg0 * ((std::size_t{1} << kSegments) - 1);
  /// Segments of at least this size are mapped rather than heap-allocated.
  static constexpr std::size_t kMapBytes = std::size_t{64} << 10;

  enum class StoreResult {
    kStored,     ///< first publication of this slot
    kDuplicate,  ///< another thread published the (identical) value first
    kOverflow,   ///< index beyond kCapacity; value not stored
  };

  AtomicCurveCache() = default;
  ~AtomicCurveCache() {
    for (std::size_t s = 0; s < kSegments; ++s)
      release(s, segs_[s].load(std::memory_order_relaxed));
  }

  AtomicCurveCache(const AtomicCurveCache&) = delete;
  AtomicCurveCache& operator=(const AtomicCurveCache&) = delete;

  /// Value at `idx`, or kUnset when absent or beyond capacity.  Wait-free.
  [[nodiscard]] Time load(std::size_t idx) const noexcept {
    if (idx >= kCapacity) return kUnset;
    const Pos p = locate(idx);
    Time* seg = segs_[p.seg].load(std::memory_order_acquire);
    if (seg == nullptr) return kUnset;
    // The slot is the complete payload: a relaxed load either observes
    // an unset slot or a fully published value, never a torn one.
    const Time slot = std::atomic_ref<Time>(seg[p.off]).load(std::memory_order_relaxed);
    return slot == 0 ? kUnset : ~slot;
  }

  /// Publish `value` at `idx`.  Callers must only ever store one value per
  /// index (the memoised function is pure); kDuplicate reports that another
  /// thread won the race with the same value.
  StoreResult store(std::size_t idx, Time value) noexcept {
    bool allocated = false;
    return store(idx, value, allocated);
  }

  /// As above, and set `allocated` iff THIS call materialised the backing
  /// segment.  Per-call precise — unlike diffing `allocations()` around the
  /// call, which can observe (and misattribute) a concurrent caller's
  /// allocation on the same shared cache.
  StoreResult store(std::size_t idx, Time value, bool& allocated) noexcept {
    allocated = false;
    if (idx >= kCapacity) return StoreResult::kOverflow;
    const Pos p = locate(idx);
    Time* seg = segment(p.seg, allocated);
    const Time prev =
        std::atomic_ref<Time>(seg[p.off]).exchange(~value, std::memory_order_relaxed);
    return prev == 0 ? StoreResult::kStored : StoreResult::kDuplicate;
  }

  /// Segments this cache has materialised so far (observability).
  [[nodiscard]] long allocations() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }

 private:
  struct Pos {
    std::size_t seg;
    std::size_t off;
  };

  /// Segment s covers indices [kSeg0*(2^s - 1), kSeg0*(2^(s+1) - 1)).
  [[nodiscard]] static Pos locate(std::size_t idx) noexcept {
    std::size_t bucket = idx / kSeg0 + 1;  // >= 1
    std::size_t s = 0;
    while (bucket > 1) {
      bucket >>= 1;
      ++s;
    }
    return Pos{s, idx - kSeg0 * ((std::size_t{1} << s) - 1)};
  }

  /// Get segment `s`, allocating and publishing it if absent; `allocated`
  /// is set iff this call's candidate won the publication race.
  [[nodiscard]] Time* segment(std::size_t s, bool& allocated) noexcept {
    Time* seg = segs_[s].load(std::memory_order_acquire);
    if (seg != nullptr) return seg;
    Time* fresh = allocate(s);
    Time* expected = nullptr;
    // Release publication pairs with the acquire loads above, so readers of
    // the pointer see fully zeroed (unset) slots.
    if (segs_[s].compare_exchange_strong(expected, fresh, std::memory_order_release,
                                         std::memory_order_acquire)) {
      allocations_.fetch_add(1, std::memory_order_relaxed);
      allocated = true;
      return fresh;
    }
    release(s, fresh);  // another thread published first
    return expected;
  }

  /// A zeroed (all unset) segment `s`.  Running out of memory terminates:
  /// the callers are noexcept.
  [[nodiscard]] static Time* allocate(std::size_t s) noexcept;
  /// Free segment `s` (null is a no-op).
  static void release(std::size_t s, Time* seg) noexcept;

  mutable std::atomic<Time*> segs_[kSegments] = {};
  std::atomic<long> allocations_{0};
};

}  // namespace hem
