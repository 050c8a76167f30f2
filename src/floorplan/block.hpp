// An axis-aligned rectangular floorplan block (a "core" at the
// granularity the paper schedules). Units are metres, HotSpot convention:
// (x, y) is the lower-left corner.
#pragma once

#include <string>

namespace thermo::floorplan {

enum class Side { kNorth, kSouth, kEast, kWest };

/// All four sides, in a fixed iteration order.
inline constexpr Side kAllSides[] = {Side::kNorth, Side::kSouth, Side::kEast,
                                     Side::kWest};

struct Block {
  std::string name;
  double width = 0.0;   ///< metres, extent along x
  double height = 0.0;  ///< metres, extent along y
  double x = 0.0;       ///< metres, lower-left corner
  double y = 0.0;       ///< metres, lower-left corner

  double area() const { return width * height; }
  double left() const { return x; }
  double right() const { return x + width; }
  double bottom() const { return y; }
  double top() const { return y + height; }

  /// Distance from the centroid to the given side's edge.
  double centroid_to_side(Side side) const;

  /// True when the interiors of the two blocks intersect (touching
  /// edges do not count as overlap).
  bool overlaps(const Block& other, double tol = 1e-12) const;

  /// True when `other` lies strictly inside this block's bounds.
  bool contains(double px, double py, double tol = 1e-12) const;
};

}  // namespace thermo::floorplan
