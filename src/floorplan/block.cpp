#include "floorplan/block.hpp"

#include <algorithm>

namespace thermo::floorplan {

double Block::centroid_to_side(Side side) const {
  switch (side) {
    case Side::kNorth:
    case Side::kSouth:
      return height / 2.0;
    case Side::kEast:
    case Side::kWest:
      return width / 2.0;
  }
  return 0.0;
}

bool Block::overlaps(const Block& other, double tol) const {
  const double overlap_x =
      std::min(right(), other.right()) - std::max(left(), other.left());
  const double overlap_y =
      std::min(top(), other.top()) - std::max(bottom(), other.bottom());
  return overlap_x > tol && overlap_y > tol;
}

bool Block::contains(double px, double py, double tol) const {
  return px >= left() - tol && px <= right() + tol && py >= bottom() - tol &&
         py <= top() + tol;
}

}  // namespace thermo::floorplan
