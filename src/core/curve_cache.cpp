#include "core/curve_cache.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <exception>

namespace hem {

namespace {

std::size_t segment_bytes(std::size_t s) noexcept {
  return (AtomicCurveCache::kSeg0 << s) * sizeof(Time);
}

}  // namespace

Time* AtomicCurveCache::allocate(std::size_t s) noexcept {
  const std::size_t bytes = segment_bytes(s);
  void* mem = nullptr;
  if (bytes >= kMapBytes) {
    mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) mem = nullptr;
  } else {
    mem = std::calloc(kSeg0 << s, sizeof(Time));
  }
  if (mem == nullptr) std::terminate();
  return static_cast<Time*>(mem);
}

void AtomicCurveCache::release(std::size_t s, Time* seg) noexcept {
  if (seg == nullptr) return;
  if (segment_bytes(s) >= kMapBytes)
    munmap(seg, segment_bytes(s));
  else
    std::free(seg);
}

}  // namespace hem
