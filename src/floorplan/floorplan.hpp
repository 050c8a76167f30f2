// Floorplan: a named collection of blocks with derived adjacency
// information (shared-edge lengths and chip-boundary exposure), the
// geometric substrate for both the RC thermal model and the paper's test
// session thermal model.
//
// A floorplan is checked and complete from the moment it exists: its
// constructor rejects bad blocks and overlaps, then derives the bounding
// box, the adjacency list and the boundary exposure. Nothing changes it
// afterwards, so copies share one immutable body and any thread may
// read a floorplan, or copy it, at any time.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "floorplan/block.hpp"

namespace thermo::floorplan {

/// Lateral adjacency between two blocks: they abut along an axis and
/// share `shared_length` metres of edge.
struct Adjacency {
  std::size_t a = 0;
  std::size_t b = 0;
  double shared_length = 0.0;  ///< metres
  /// Side of block `a` on which `b` touches it.
  Side side_of_a = Side::kNorth;
};

class Floorplan {
 public:
  /// Yields the next block, or std::nullopt after the last.
  using BlockSource = std::function<std::optional<Block>()>;

  /// The empty floorplan: no name, no blocks. The one floorplan without
  /// blocks; SocSpec::validate, GridThermalModel and the viz maps
  /// reject it.
  Floorplan();

  /// Checks, in order: each block in block order (non-empty name,
  /// positive and finite geometry, a name no earlier block has); then
  /// that there is a block and that no two overlap, which throws
  /// InvalidArgument "invalid floorplan '<name>':" with one
  /// "\n  - <error>" per fault (overlaps in (i, j) order). Then derives
  /// the bounding box, the adjacencies and the boundary exposure.
  Floorplan(std::string name, std::vector<Block> blocks);

  /// As above, with the blocks drawn from `next` one at a time and each
  /// checked as it arrives, so a bad block fails before `next` is asked
  /// for a later one (a reader's error on a later line comes after it).
  Floorplan(std::string name, const BlockSource& next);

  /// Copies share the body. There is no move: a moved-from floorplan
  /// would have none, so a move copies.
  Floorplan(const Floorplan&) = default;
  Floorplan& operator=(const Floorplan&) = default;

  const std::string& name() const { return data_->name_; }

  std::size_t size() const { return data_->blocks_.size(); }
  bool empty() const { return data_->blocks_.empty(); }
  const Block& block(std::size_t i) const;
  const std::vector<Block>& blocks() const { return data_->blocks_; }

  /// Index of the block with this name, std::nullopt when absent.
  std::optional<std::size_t> index_of(std::string_view name) const;

  // --- derived geometry ---

  /// Chip bounding box.
  double chip_width() const { return data_->max_x_ - data_->min_x_; }
  double chip_height() const { return data_->max_y_ - data_->min_y_; }
  double min_x() const { return data_->min_x_; }
  double min_y() const { return data_->min_y_; }
  double chip_area() const { return chip_width() * chip_height(); }

  /// All lateral adjacencies (each unordered pair listed once, a < b),
  /// sorted by (a, b). The one stored form of the adjacency graph:
  /// neighbours and the thermal models read it.
  const std::vector<Adjacency>& adjacencies() const {
    return data_->adjacencies_;
  }

  /// Indices of blocks adjacent to `i`, in increasing index order (a
  /// scan of adjacencies(), O(adjacency count)).
  std::vector<std::size_t> neighbours(std::size_t i) const;

  /// Length of block i's perimeter lying on the chip bounding box,
  /// per side. (A block in the interior returns 0 everywhere.)
  double boundary_exposure(std::size_t i, Side side) const;

  /// Total boundary exposure over all four sides.
  double boundary_exposure(std::size_t i) const;

 private:
  /// Transparent hash so index_of looks names up without a copy.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  /// What a floorplan holds; built whole, then never changed.
  struct Data {
    /// The empty floorplan's body.
    Data() = default;
    /// The checks and derivations of Floorplan(name, next).
    Data(std::string name, const BlockSource& next);

    std::string name_;
    std::vector<Block> blocks_;
    /// Block name -> index: O(1) duplicate checks.
    std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
        index_;
    double min_x_ = 0.0, min_y_ = 0.0, max_x_ = 0.0, max_y_ = 0.0;
    /// Sorted by (a, b): O(edges) storage, one entry per abutting pair.
    std::vector<Adjacency> adjacencies_;
    std::vector<std::array<double, 4>> boundary_;  // N,S,E,W per block
  };

  std::shared_ptr<const Data> data_;
};

/// Geometric tolerance (metres) used for abutment tests: edges closer
/// than this are considered touching. Floorplan dimensions are ~1e-3 m,
/// so 1e-9 m is far below any feature size but far above FP noise.
inline constexpr double kGeomTol = 1e-9;

}  // namespace thermo::floorplan
