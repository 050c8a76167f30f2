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

/// Pairs (i, j), i < j, of overlapping blocks, sorted. A sweep over
/// blocks sorted by left edge: an active block whose right edge lies at
/// or before the current block's left edge has an x-overlap <= 0 with
/// it and with every later block, so it leaves the active list; each
/// remaining pair gets the all-pairs overlap test.
std::vector<IndexPair> overlapping_pairs(const std::vector<Block>& blocks) {
  std::vector<std::size_t> by_left(blocks.size());
  std::iota(by_left.begin(), by_left.end(), std::size_t{0});
  std::sort(by_left.begin(), by_left.end(), [&](std::size_t a, std::size_t b) {
    return std::pair{blocks[a].left(), a} < std::pair{blocks[b].left(), b};
  });
  std::vector<std::size_t> active;
  std::vector<IndexPair> overlapping;
  for (const std::size_t k : by_left) {
    const Block& current = blocks[k];
    std::erase_if(active, [&](std::size_t a) {
      return blocks[a].right() <= current.left();
    });
    for (const std::size_t a : active) {
      const std::size_t i = std::min(a, k);
      const std::size_t j = std::max(a, k);
      if (blocks[i].overlaps(blocks[j], kGeomTol)) {
        overlapping.emplace_back(i, j);
      }
    }
    active.push_back(k);
  }
  std::sort(overlapping.begin(), overlapping.end());
  return overlapping;
}

/// Every abutting pair, sorted by (a, b). Only pairs with a top/bottom
/// or right/left edge within tolerance can abut; those are tested, in
/// (i, j) order, with the per-pair rule.
std::vector<Adjacency> find_adjacencies(const std::vector<Block>& blocks) {
  std::vector<IndexPair> candidates;
  abutment_candidates(blocks, &Block::top, &Block::bottom, candidates);
  abutment_candidates(blocks, &Block::right, &Block::left, candidates);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<Adjacency> adjacencies;
  for (const auto& [i, j] : candidates) {
    const Block& a = blocks[i];
    const Block& b = blocks[j];
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
    if (length > kGeomTol) adjacencies.push_back(Adjacency{i, j, length, side});
  }
  return adjacencies;
}

}  // namespace

Floorplan::Data::Data(std::string name, const BlockSource& next)
    : name_(std::move(name)) {
  // 1. Each block as it arrives.
  while (std::optional<Block> arrived = next()) {
    Block& block = *arrived;
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
  }

  // 2. The whole: at least one block, no two overlapping.
  std::vector<std::string> errors;
  if (blocks_.empty()) errors.push_back("floorplan has no blocks");
  for (const auto& [i, j] : overlapping_pairs(blocks_)) {
    std::ostringstream os;
    os << "blocks '" << blocks_[i].name << "' and '" << blocks_[j].name
       << "' overlap";
    errors.push_back(os.str());
  }
  if (!errors.empty()) {
    std::string message = "invalid floorplan '" + name_ + "':";
    for (const auto& e : errors) message += "\n  - " + e;
    throw InvalidArgument(message);
  }

  // 3. The derived geometry.
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
  adjacencies_ = find_adjacencies(blocks_);
  // Boundary exposure: portion of each block side lying on the bbox edge.
  boundary_.assign(blocks_.size(), {0.0, 0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    auto& exposure = boundary_[i];
    if (std::fabs(b.top() - max_y_) < kGeomTol) exposure[0] = b.width;
    if (std::fabs(b.bottom() - min_y_) < kGeomTol) exposure[1] = b.width;
    if (std::fabs(b.right() - max_x_) < kGeomTol) exposure[2] = b.height;
    if (std::fabs(b.left() - min_x_) < kGeomTol) exposure[3] = b.height;
  }
}

Floorplan::Floorplan() {
  static const std::shared_ptr<const Data> empty = std::make_shared<Data>();
  data_ = empty;
}

Floorplan::Floorplan(std::string name, std::vector<Block> blocks)
    : Floorplan(std::move(name),
                [&blocks, i = std::size_t{0}]() mutable -> std::optional<Block> {
                  if (i == blocks.size()) return std::nullopt;
                  return std::move(blocks[i++]);
                }) {}

Floorplan::Floorplan(std::string name, const BlockSource& next)
    : data_(std::make_shared<const Data>(std::move(name), next)) {}

const Block& Floorplan::block(std::size_t i) const {
  THERMO_REQUIRE(i < data_->blocks_.size(), "block index out of range");
  return data_->blocks_[i];
}

std::optional<std::size_t> Floorplan::index_of(std::string_view name) const {
  const auto it = data_->index_.find(name);
  if (it == data_->index_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::size_t> Floorplan::neighbours(std::size_t i) const {
  THERMO_REQUIRE(i < size(), "neighbours: index out of range");
  // Pairs (a, i) with a < i precede every (i, b) in (a, b) order, and
  // each run is ascending, so the scan yields ascending indices.
  std::vector<std::size_t> out;
  for (const Adjacency& e : data_->adjacencies_) {
    if (e.b == i) out.push_back(e.a);
    if (e.a == i) out.push_back(e.b);
  }
  return out;
}

double Floorplan::boundary_exposure(std::size_t i, Side side) const {
  THERMO_REQUIRE(i < size(), "boundary_exposure: index out of range");
  const auto& exposure = data_->boundary_[i];
  switch (side) {
    case Side::kNorth: return exposure[0];
    case Side::kSouth: return exposure[1];
    case Side::kEast: return exposure[2];
    case Side::kWest: return exposure[3];
  }
  return 0.0;
}

double Floorplan::boundary_exposure(std::size_t i) const {
  double total = 0.0;
  for (Side side : kAllSides) total += boundary_exposure(i, side);
  return total;
}

}  // namespace thermo::floorplan
