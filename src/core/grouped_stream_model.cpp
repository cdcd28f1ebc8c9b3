#include "core/grouped_stream_model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace hem {

GroupedStreamModel::GroupedStreamModel(ModelPtr outer, Count group_size, Time spacing)
    : EventModel(rate_of(outer) * group_size),
      outer_(std::move(outer)),
      group_size_(group_size),
      spacing_(spacing) {
  if (!outer_) throw std::invalid_argument("GroupedStreamModel: null outer model");
  if (group_size < 1) throw std::invalid_argument("GroupedStreamModel: group_size must be >= 1");
  if (spacing < 0) throw std::invalid_argument("GroupedStreamModel: spacing must be >= 0");
}

Time GroupedStreamModel::delta_min_raw(Count n) const {
  const Count groups = (n + group_size_ - 1) / group_size_;  // ceil(n / B)
  const Time outer_span = outer_->delta_min(groups);
  const Time spread = sat_mul(spacing_, group_size_ - 1);
  return std::max<Time>(0, sat_sub(outer_span, spread));
}

Time GroupedStreamModel::delta_plus_raw(Count n) const {
  const Count groups = (n - 2) / group_size_ + 2;
  const Time outer_span = outer_->delta_plus(groups);
  const Time spread = sat_mul(spacing_, group_size_ - 1);
  return sat_add(outer_span, spread);
}

std::string GroupedStreamModel::describe() const {
  std::ostringstream os;
  os << "Grouped(B=" << group_size_ << ", s=" << spacing_ << ", " << outer_->describe() << ")";
  return os.str();
}

}  // namespace hem
