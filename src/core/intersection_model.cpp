#include "core/intersection_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

IntersectionModel::IntersectionModel(ModelPtr a, ModelPtr b, Count check_horizon)
    : EventModel(std::min(rate_of(a), rate_of(b))), a_(std::move(a)), b_(std::move(b)) {
  if (!a_ || !b_) throw std::invalid_argument("IntersectionModel: null input model");
  for (Count n = 2; n <= check_horizon; ++n) {
    if (delta_min_raw(n) > delta_plus_raw(n))
      throw std::invalid_argument(
          "IntersectionModel: contradictory specifications at n=" + std::to_string(n) + " (" +
          a_->describe() + " vs " + b_->describe() + ")");
  }
}

Time IntersectionModel::delta_min_raw(Count n) const {
  return std::max(a_->delta_min(n), b_->delta_min(n));
}

Time IntersectionModel::delta_plus_raw(Count n) const {
  return std::min(a_->delta_plus(n), b_->delta_plus(n));
}

std::string IntersectionModel::describe() const {
  std::ostringstream os;
  os << "Intersect(" << a_->describe() << ", " << b_->describe() << ")";
  return os.str();
}

}  // namespace hem
