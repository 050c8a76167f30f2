#include "floorplan/floorplan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace thermo::floorplan {

namespace {

/// Overlap length of [a0, a1] and [b0, b1]; <= 0 when disjoint.
double interval_overlap(double a0, double a1, double b0, double b1) {
  return std::min(a1, b1) - std::max(a0, b0);
}

using Edge = double (Block::*)() const;
using IndexPair = std::pair<std::size_t, std::size_t>;

/// Appends (min, max) index pairs of blocks a != b whose `near` edge of
/// a lies within 2·kGeomTol of the `far` edge of b, found by binary
/// search over the sorted `far` edges. A computed |near - far| below
/// kGeomTol means the exact gap is below 2·kGeomTol, so this is a
/// superset of the pairs the abutment test can accept.
void abutment_candidates(const std::vector<Block>& blocks, Edge near, Edge far,
                         std::vector<IndexPair>& out) {
  std::vector<std::pair<double, std::size_t>> edges;
  edges.reserve(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    edges.emplace_back((blocks[b].*far)(), b);
  }
  std::sort(edges.begin(), edges.end());
  for (std::size_t a = 0; a < blocks.size(); ++a) {
    const double edge = (blocks[a].*near)();
    auto it = std::lower_bound(
        edges.begin(), edges.end(),
        std::pair{edge - 2.0 * kGeomTol, std::size_t{0}});
    for (; it != edges.end() && it->first <= edge + 2.0 * kGeomTol; ++it) {
      if (it->second != a) {
        out.emplace_back(std::min(a, it->second), std::max(a, it->second));
      }
    }
  }
}

}  // namespace

std::size_t Floorplan::add_block(Block block) {
  THERMO_REQUIRE(!block.name.empty(), "block name must be non-empty");
  THERMO_REQUIRE(block.width > 0.0 && block.height > 0.0,
                 "block '" + block.name + "' must have positive dimensions");
  THERMO_REQUIRE(std::isfinite(block.x) && std::isfinite(block.y) &&
                     std::isfinite(block.width) && std::isfinite(block.height),
                 "block '" + block.name + "' has non-finite geometry");
  THERMO_REQUIRE(!index_.contains(block.name),
                 "duplicate block name '" + block.name + "'");
  index_.emplace(block.name, blocks_.size());
  blocks_.push_back(std::move(block));
  invalidate_cache();
  return blocks_.size() - 1;
}

const Block& Floorplan::block(std::size_t i) const {
  THERMO_REQUIRE(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

std::optional<std::size_t> Floorplan::index_of(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void Floorplan::invalidate_cache() {
  cache_valid_ = false;
  validated_ = false;
}

void Floorplan::compute_cache() const {
  if (cache_valid_) return;
  const std::size_t n = blocks_.size();
  adjacencies_.clear();
  boundary_.assign(n, {0.0, 0.0, 0.0, 0.0});

  if (n == 0) {
    min_x_ = min_y_ = max_x_ = max_y_ = 0.0;
    cache_valid_ = true;
    return;
  }

  min_x_ = blocks_[0].left();
  max_x_ = blocks_[0].right();
  min_y_ = blocks_[0].bottom();
  max_y_ = blocks_[0].top();
  for (const Block& b : blocks_) {
    min_x_ = std::min(min_x_, b.left());
    max_x_ = std::max(max_x_, b.right());
    min_y_ = std::min(min_y_, b.bottom());
    max_y_ = std::max(max_y_, b.top());
  }

  // Only pairs with a top/bottom or right/left edge within tolerance
  // can abut; test those, in (i, j) order, with the per-pair rule.
  std::vector<IndexPair> candidates;
  abutment_candidates(blocks_, &Block::top, &Block::bottom, candidates);
  abutment_candidates(blocks_, &Block::right, &Block::left, candidates);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (const auto& [i, j] : candidates) {
    const Block& a = blocks_[i];
    const Block& b = blocks_[j];
    double length = 0.0;
    Side side = Side::kNorth;
    // Vertical abutment: a's top touches b's bottom or vice versa.
    if (std::fabs(a.top() - b.bottom()) < kGeomTol) {
      length = interval_overlap(a.left(), a.right(), b.left(), b.right());
      side = Side::kNorth;
    } else if (std::fabs(b.top() - a.bottom()) < kGeomTol) {
      length = interval_overlap(a.left(), a.right(), b.left(), b.right());
      side = Side::kSouth;
    } else if (std::fabs(a.right() - b.left()) < kGeomTol) {
      length = interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
      side = Side::kEast;
    } else if (std::fabs(b.right() - a.left()) < kGeomTol) {
      length = interval_overlap(a.bottom(), a.top(), b.bottom(), b.top());
      side = Side::kWest;
    }
    // The candidates are sorted and distinct, so the list comes out
    // sorted by (a, b).
    if (length > kGeomTol) adjacencies_.push_back(Adjacency{i, j, length, side});
  }

  // Boundary exposure: portion of each block side lying on the bbox edge.
  for (std::size_t i = 0; i < n; ++i) {
    const Block& b = blocks_[i];
    auto& exposure = boundary_[i];
    if (std::fabs(b.top() - max_y_) < kGeomTol) exposure[0] = b.width;
    if (std::fabs(b.bottom() - min_y_) < kGeomTol) exposure[1] = b.width;
    if (std::fabs(b.right() - max_x_) < kGeomTol) exposure[2] = b.height;
    if (std::fabs(b.left() - min_x_) < kGeomTol) exposure[3] = b.height;
  }

  cache_valid_ = true;
}

double Floorplan::chip_width() const {
  compute_cache();
  return max_x_ - min_x_;
}

double Floorplan::chip_height() const {
  compute_cache();
  return max_y_ - min_y_;
}

double Floorplan::min_x() const {
  compute_cache();
  return min_x_;
}

double Floorplan::min_y() const {
  compute_cache();
  return min_y_;
}

const std::vector<Adjacency>& Floorplan::adjacencies() const {
  compute_cache();
  return adjacencies_;
}

std::vector<std::size_t> Floorplan::neighbours(std::size_t i) const {
  THERMO_REQUIRE(i < blocks_.size(), "neighbours: index out of range");
  compute_cache();
  // Pairs (a, i) with a < i precede every (i, b) in (a, b) order, and
  // each run is ascending, so the scan yields ascending indices.
  std::vector<std::size_t> out;
  for (const Adjacency& e : adjacencies_) {
    if (e.b == i) out.push_back(e.a);
    if (e.a == i) out.push_back(e.b);
  }
  return out;
}

double Floorplan::boundary_exposure(std::size_t i, Side side) const {
  THERMO_REQUIRE(i < blocks_.size(), "boundary_exposure: index out of range");
  compute_cache();
  switch (side) {
    case Side::kNorth: return boundary_[i][0];
    case Side::kSouth: return boundary_[i][1];
    case Side::kEast: return boundary_[i][2];
    case Side::kWest: return boundary_[i][3];
  }
  return 0.0;
}

double Floorplan::boundary_exposure(std::size_t i) const {
  double total = 0.0;
  for (Side side : kAllSides) total += boundary_exposure(i, side);
  return total;
}

ValidationReport Floorplan::validate() const {
  ValidationReport report;
  const std::size_t n = blocks_.size();
  if (n == 0) {
    report.ok = false;
    report.errors.push_back("floorplan has no blocks");
    return report;
  }
  // Sweep over blocks sorted by left edge. An active block whose right
  // edge lies at or before the current block's left edge has an
  // x-overlap <= 0 with it and with every later block, so it leaves the
  // active list; each remaining pair gets the all-pairs overlap test.
  std::vector<std::size_t> by_left(n);
  std::iota(by_left.begin(), by_left.end(), std::size_t{0});
  std::sort(by_left.begin(), by_left.end(), [&](std::size_t a, std::size_t b) {
    return std::pair{blocks_[a].left(), a} < std::pair{blocks_[b].left(), b};
  });
  std::vector<std::size_t> active;
  std::vector<IndexPair> overlapping;
  for (const std::size_t k : by_left) {
    const Block& current = blocks_[k];
    std::erase_if(active, [&](std::size_t a) {
      return blocks_[a].right() <= current.left();
    });
    for (const std::size_t a : active) {
      const std::size_t i = std::min(a, k);
      const std::size_t j = std::max(a, k);
      if (blocks_[i].overlaps(blocks_[j], kGeomTol)) {
        overlapping.emplace_back(i, j);
      }
    }
    active.push_back(k);
  }
  std::sort(overlapping.begin(), overlapping.end());
  for (const auto& [i, j] : overlapping) {
    std::ostringstream os;
    os << "blocks '" << blocks_[i].name << "' and '" << blocks_[j].name
       << "' overlap";
    report.errors.push_back(os.str());
  }

  double block_area = 0.0;
  for (const Block& b : blocks_) block_area += b.area();
  const double bbox_area = chip_area();
  report.coverage = bbox_area > 0.0 ? block_area / bbox_area : 0.0;

  report.ok = report.errors.empty();
  return report;
}

void Floorplan::require_valid() const {
  if (validated_) return;
  const ValidationReport report = validate();
  if (!report.ok) {
    std::string message = "invalid floorplan '" + name_ + "':";
    for (const auto& e : report.errors) message += "\n  - " + e;
    throw InvalidArgument(message);
  }
  validated_ = true;
}

}  // namespace thermo::floorplan
