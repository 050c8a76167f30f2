#include "floorplan/generator.hpp"

#include <queue>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace thermo::floorplan {

namespace {

struct Region {
  double x, y, w, h;
};

/// Heap key of a region: its area and index. The heap's top is the
/// largest area, the smallest index among equal areas — the first
/// largest region.
struct Candidate {
  double area;
  std::size_t index;
  bool operator<(const Candidate& other) const {
    return area < other.area || (area == other.area && index > other.index);
  }
};

}  // namespace

Floorplan make_slicing_floorplan(Rng& rng, const SlicingOptions& options) {
  THERMO_REQUIRE(options.block_count >= 1, "need at least one block");
  THERMO_REQUIRE(options.chip_width > 0.0 && options.chip_height > 0.0,
                 "chip dimensions must be positive");
  THERMO_REQUIRE(options.min_cut_fraction > 0.0 && options.min_cut_fraction < 0.5,
                 "min_cut_fraction must lie in (0, 0.5)");

  std::vector<Region> regions{{0.0, 0.0, options.chip_width, options.chip_height}};
  std::priority_queue<Candidate> largest_first;
  const auto push = [&](std::size_t i) {
    largest_first.push({regions[i].w * regions[i].h, i});
  };
  push(0);
  // Repeatedly split the largest region until we have enough leaves.
  while (regions.size() < options.block_count) {
    const std::size_t largest = largest_first.top().index;
    largest_first.pop();
    Region region = regions[largest];
    const bool can_cut_vertical = region.w >= 2.0 * options.min_block_dim;
    const bool can_cut_horizontal = region.h >= 2.0 * options.min_block_dim;
    if (!can_cut_vertical && !can_cut_horizontal) {
      // Degenerate chip (too many blocks for min_block_dim); give up on
      // this region and cut the next largest instead by shrinking its
      // priority. In practice chips are far larger than min_block_dim.
      throw InvalidArgument(
          "slicing floorplan: cannot reach block_count without violating "
          "min_block_dim");
    }
    bool cut_vertical;
    if (can_cut_vertical && can_cut_horizontal) {
      // Prefer cutting the longer span to keep aspect ratios sane.
      cut_vertical = region.w > region.h ? true
                    : region.h > region.w ? false
                                          : rng.chance(0.5);
    } else {
      cut_vertical = can_cut_vertical;
    }
    const double fraction =
        rng.uniform(options.min_cut_fraction, 1.0 - options.min_cut_fraction);
    Region first = region;
    Region second = region;
    if (cut_vertical) {
      first.w = region.w * fraction;
      second.x = region.x + first.w;
      second.w = region.w - first.w;
    } else {
      first.h = region.h * fraction;
      second.y = region.y + first.h;
      second.h = region.h - first.h;
    }
    regions[largest] = first;
    regions.push_back(second);
    push(largest);
    push(regions.size() - 1);
  }

  std::vector<Block> blocks;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    Block block;
    block.name = 'c' + std::to_string(i);
    block.x = regions[i].x;
    block.y = regions[i].y;
    block.width = regions[i].w;
    block.height = regions[i].h;
    blocks.push_back(std::move(block));
  }
  return Floorplan("synthetic-" + std::to_string(options.block_count),
                   std::move(blocks));
}

}  // namespace thermo::floorplan
