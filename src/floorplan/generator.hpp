// Synthetic floorplan generator: random slicing floorplans for property
// tests and synthetic-SoC scenarios (soc::make_synthetic_soc builds on
// it).
//
// The generator's blocks pass the Floorplan constructor's checks by
// design — positive dimensions, pairwise non-overlapping, covering the
// die exactly. It is deterministic for a given Rng state, which is how
// scenario requests reproduce "the same random SoC" from a seed
// (docs/SERVE.md, soc.kind = "synthetic").
#pragma once

#include <cstddef>

#include "floorplan/floorplan.hpp"
#include "util/rng.hpp"

namespace thermo::floorplan {

struct SlicingOptions {
  std::size_t block_count = 12;   ///< number of leaf blocks (>= 1)
  double chip_width = 0.016;     ///< metres
  double chip_height = 0.016;    ///< metres
  /// Cut positions are drawn uniformly from [min, 1-min] of the sliced
  /// span: 0.5 always bisects (a regular floorplan), values near 0
  /// allow extreme aspect ratios and strongly varied block areas — the
  /// heterogeneity the thermal model cares about.
  double min_cut_fraction = 0.3;
  /// Regions thinner than 2x this (metres) are not cut in that
  /// direction, bounding how sliver-like a block can get; the generator
  /// falls back to the other direction, so block_count is always met.
  double min_block_dim = 1e-4;
};

/// Random slicing floorplan: repeatedly cuts the currently largest
/// region — preferring to cut across its longer span, coin-flipping on
/// ties — until `block_count` leaves exist. The result mimics real
/// hierarchical layouts: a mix of large and small rectangles with
/// irregular adjacency, unlike a uniform lattice. Always valid
/// and fully covering; deterministic for a given RNG state. Blocks are
/// named "c<index>" in creation order; the floorplan is named
/// "synthetic-<block_count>", which soc::make_synthetic_soc takes as
/// its SoC's name. Throws InvalidArgument on non-positive dimensions,
/// min_cut_fraction outside (0, 0.5), or a block_count unreachable
/// without violating min_block_dim.
Floorplan make_slicing_floorplan(Rng& rng, const SlicingOptions& options = {});

}  // namespace thermo::floorplan
