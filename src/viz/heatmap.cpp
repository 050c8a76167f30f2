#include "viz/heatmap.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo::viz {

namespace {

constexpr const char kRamp[] = " .:-=+*#%@";
constexpr std::size_t kRampLevels = sizeof(kRamp) - 2;  // last index

char ramp_char(double value, double lo, double hi) {
  if (hi <= lo) return kRamp[0];
  const double t = std::clamp((value - lo) / (hi - lo), 0.0, 1.0);
  return kRamp[static_cast<std::size_t>(std::lround(t * kRampLevels))];
}

struct Rgb {
  int r, g, b;
};

/// Blue -> cyan -> yellow -> red colour ramp.
Rgb colour_of(double t) {
  t = std::clamp(t, 0.0, 1.0);
  if (t < 1.0 / 3) {
    const double u = t * 3.0;
    return {0, static_cast<int>(255 * u), 255};
  }
  if (t < 2.0 / 3) {
    const double u = (t - 1.0 / 3) * 3.0;
    return {static_cast<int>(255 * u), 255, static_cast<int>(255 * (1 - u))};
  }
  const double u = (t - 2.0 / 3) * 3.0;
  return {255, static_cast<int>(255 * (1 - u)), 0};
}

}  // namespace

std::string ascii_heatmap(const std::vector<double>& cells, std::size_t rows,
                          std::size_t cols) {
  THERMO_REQUIRE(rows > 0 && cols > 0, "heatmap needs positive dimensions");
  THERMO_REQUIRE(cells.size() == rows * cols,
                 "cell count must equal rows*cols");
  const auto [lo_it, hi_it] = std::minmax_element(cells.begin(), cells.end());
  std::string out;
  out.reserve((cols + 1) * rows);
  for (std::size_t r = rows; r-- > 0;) {  // row 0 at the bottom
    for (std::size_t c = 0; c < cols; ++c) {
      out += ramp_char(cells[r * cols + c], *lo_it, *hi_it);
    }
    out += '\n';
  }
  return out;
}

std::string ascii_block_map(const floorplan::Floorplan& fp,
                            const std::vector<double>& block_values,
                            std::size_t width) {
  THERMO_REQUIRE(!fp.empty(), "floorplan has no blocks");
  THERMO_REQUIRE(block_values.size() == fp.size(),
                 "one value per block required");
  THERMO_REQUIRE(width >= 4, "width must be at least 4");
  const double aspect = fp.chip_height() / fp.chip_width();
  // Terminal cells are ~2x taller than wide.
  const std::size_t height = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(
             static_cast<double>(width) * aspect * 0.5)));

  const auto [lo_it, hi_it] =
      std::minmax_element(block_values.begin(), block_values.end());

  std::string out;
  for (std::size_t row = height; row-- > 0;) {
    for (std::size_t col = 0; col < width; ++col) {
      const double x = fp.min_x() + (static_cast<double>(col) + 0.5) /
                                        static_cast<double>(width) *
                                        fp.chip_width();
      const double y = fp.min_y() + (static_cast<double>(row) + 0.5) /
                                        static_cast<double>(height) *
                                        fp.chip_height();
      char ch = ' ';
      for (std::size_t b = 0; b < fp.size(); ++b) {
        if (fp.block(b).contains(x, y)) {
          ch = ramp_char(block_values[b], *lo_it, *hi_it);
          break;
        }
      }
      out += ch;
    }
    out += '\n';
  }
  return out;
}

std::string svg_floorplan(const floorplan::Floorplan& fp,
                          const std::vector<double>& block_values) {
  THERMO_REQUIRE(!fp.empty(), "floorplan has no blocks");
  THERMO_REQUIRE(block_values.size() == fp.size(),
                 "one value per block required");
  constexpr double kScale = 40000.0;  // pixels per metre

  const auto [lo_it, hi_it] =
      std::minmax_element(block_values.begin(), block_values.end());
  const double lo = *lo_it, hi = *hi_it;

  const double w = fp.chip_width() * kScale;
  const double h = fp.chip_height() * kScale;
  std::ostringstream svg;
  svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w
      << "\" height=\"" << h << "\" viewBox=\"0 0 " << w << ' ' << h
      << "\">\n";
  for (std::size_t b = 0; b < fp.size(); ++b) {
    const floorplan::Block& block = fp.block(b);
    const double t = hi > lo ? (block_values[b] - lo) / (hi - lo) : 0.0;
    const Rgb rgb = colour_of(t);
    const double x = (block.left() - fp.min_x()) * kScale;
    // SVG y grows downward; floorplan y grows upward.
    const double y = h - (block.top() - fp.min_y()) * kScale;
    const double bw = block.width * kScale;
    const double bh = block.height * kScale;
    svg << "  <rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << bw
        << "\" height=\"" << bh << "\" fill=\"rgb(" << rgb.r << ',' << rgb.g
        << ',' << rgb.b << ")\" stroke=\"black\" stroke-width=\"1\"/>\n";
    const std::string label =
        block.name + ' ' + format_double(block_values[b], 1);
    svg << "  <text x=\"" << x + bw / 2 << "\" y=\"" << y + bh / 2
        << "\" text-anchor=\"middle\" dominant-baseline=\"middle\" "
           "font-size=\""
        << std::max(8.0, std::min(bw, bh) / 6.0) << "\">" << label
        << "</text>\n";
  }
  svg << "</svg>\n";
  return svg.str();
}

}  // namespace thermo::viz
