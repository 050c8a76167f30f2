// Floorplan: a named collection of blocks with derived adjacency
// information (shared-edge lengths and chip-boundary exposure), the
// geometric substrate for both the RC thermal model and the paper's test
// session thermal model.
//
// Derived state is cached on the floorplan itself: the geometry is
// computed lazily on first use, and a passing require_valid() is
// remembered, so re-validating a floorplan (or a copy of one; copies
// carry both) costs nothing. add_block drops both. A failed validation
// is never remembered: every call re-checks and throws the same message.
//
// Concurrency: const members are safe to call from several threads only
// once the floorplan has passed require_valid(), which fills the lazy
// geometry and the pass record. Validate a floorplan before sharing it.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
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

/// Result of Floorplan::validate().
struct ValidationReport {
  bool ok = true;
  std::vector<std::string> errors;  ///< overlapping blocks, no blocks
  double coverage = 0.0;            ///< sum(block areas) / bbox area
};

class Floorplan {
 public:
  Floorplan() = default;
  explicit Floorplan(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a block (positive width/height, unique non-empty name required)
  /// and returns its index. Invalidates cached adjacency.
  std::size_t add_block(Block block);

  std::size_t size() const { return blocks_.size(); }
  bool empty() const { return blocks_.empty(); }
  const Block& block(std::size_t i) const;
  const std::vector<Block>& blocks() const { return blocks_; }

  /// Index of the block with this name, std::nullopt when absent.
  std::optional<std::size_t> index_of(std::string_view name) const;

  // --- derived geometry (computed lazily, cached) ---

  /// Chip bounding box.
  double chip_width() const;
  double chip_height() const;
  double min_x() const;
  double min_y() const;
  double chip_area() const { return chip_width() * chip_height(); }

  /// All lateral adjacencies (each unordered pair listed once, a < b),
  /// sorted by (a, b). The one stored form of the adjacency graph:
  /// neighbours and the thermal models read it.
  const std::vector<Adjacency>& adjacencies() const;

  /// Indices of blocks adjacent to `i`, in increasing index order (a
  /// scan of adjacencies(), O(adjacency count)).
  std::vector<std::size_t> neighbours(std::size_t i) const;

  /// Length of block i's perimeter lying on the chip bounding box,
  /// per side. (A block in the interior returns 0 everywhere.)
  double boundary_exposure(std::size_t i, Side side) const;

  /// Total boundary exposure over all four sides.
  double boundary_exposure(std::size_t i) const;

  /// Checks geometric consistency: no pairwise overlap (a sweep over
  /// blocks sorted by left edge, errors listed in (i, j) order), and
  /// reports the area coverage of the bounding box.
  ValidationReport validate() const;

  /// Throws InvalidArgument when validate() reports errors. A pass is
  /// remembered until the next add_block, so later calls (on this
  /// floorplan or a copy) return at once.
  void require_valid() const;

 private:
  void invalidate_cache();
  void compute_cache() const;

  /// Transparent hash so index_of looks names up without a copy.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::string name_;
  std::vector<Block> blocks_;
  /// Block name -> index: O(1) duplicate checks in add_block.
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      index_;

  // lazily computed
  mutable bool cache_valid_ = false;
  /// Set by a passing require_valid(), cleared by invalidate_cache().
  mutable bool validated_ = false;
  /// Sorted by (a, b): O(edges) storage, one entry per abutting pair.
  mutable std::vector<Adjacency> adjacencies_;
  mutable double min_x_ = 0.0, min_y_ = 0.0, max_x_ = 0.0, max_y_ = 0.0;
  mutable std::vector<std::array<double, 4>> boundary_;  // N,S,E,W per block
};

/// Geometric tolerance (metres) used for abutment tests: edges closer
/// than this are considered touching. Floorplan dimensions are ~1e-3 m,
/// so 1e-9 m is far below any feature size but far above FP noise.
inline constexpr double kGeomTol = 1e-9;

}  // namespace thermo::floorplan
