// Text and SVG renderers for floorplans and thermal fields: quick
// eyeballing of hot spots without external tooling. Consumes only
// floorplan geometry plus a per-block (or per-cell) value vector, so it
// renders anything block-shaped — temperatures, power densities,
// scheduler weights — and sits at the bottom of the layer DAG next to
// floorplan.
//
// All three renderers are pure functions of their inputs (no global
// state, nothing written to disk), returning the finished document as a
// string; callers decide where it goes (`thermosched simulate` prints
// the ASCII map, examples/thermal_map.cpp writes the SVG).
#pragma once

#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"

namespace thermo::viz {

/// Renders a row-major cell-temperature field (rows x cols, row 0 at the
/// bottom, printed top-down — matching the floorplan's lower-left-origin
/// convention) as an ASCII heat map using the 10-step ramp " .:-=+*#%@"
/// linearly scaled between the field's min and max. A constant field
/// renders as all-minimum. Throws InvalidArgument unless cells.size()
/// == rows * cols.
std::string ascii_heatmap(const std::vector<double>& cells, std::size_t rows,
                          std::size_t cols);

/// Renders per-block values on a floorplan as an ASCII map: the die
/// bounding box is sampled onto a character raster of the given width
/// (height follows the die aspect ratio, halved to compensate for
/// terminal cells being ~2x taller than wide), each sample taking the
/// ramp character of the block containing it. Gaps between blocks
/// render as spaces. Throws InvalidArgument unless the floorplan has
/// blocks and block_values.size() matches it.
std::string ascii_block_map(const floorplan::Floorplan& fp,
                            const std::vector<double>& block_values,
                            std::size_t width = 48);

/// Renders the floorplan as a standalone SVG document at 40,000 pixels
/// per metre (a 16 mm die is 640 px), colouring each block by its value
/// on a blue -> cyan -> yellow -> red ramp (cool to hot) between the
/// values' min and max, and labelling it with its name and value. Block
/// values may be temperatures, power densities, weights... Throws
/// InvalidArgument unless the floorplan has blocks and
/// block_values.size() matches it.
std::string svg_floorplan(const floorplan::Floorplan& fp,
                          const std::vector<double>& block_values);

}  // namespace thermo::viz
