#include "core/leaky_bucket_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

LeakyBucketModel::LeakyBucketModel(Count burst, Time spacing)
    : EventModel(Rate::of(1, spacing)), burst_(burst), spacing_(spacing) {
  if (burst < 1) throw std::invalid_argument("LeakyBucketModel: burst must be >= 1");
  if (spacing <= 0) throw std::invalid_argument("LeakyBucketModel: spacing must be > 0");
}

Time LeakyBucketModel::delta_min_raw(Count n) const {
  if (n <= burst_) return 0;
  return sat_mul(spacing_, n - burst_);
}

Time LeakyBucketModel::delta_plus_raw(Count) const { return kTimeInfinity; }

std::string LeakyBucketModel::describe() const {
  std::ostringstream os;
  os << "LeakyBucket(b=" << burst_ << ", spacing=" << spacing_ << ")";
  return os.str();
}

}  // namespace hem
