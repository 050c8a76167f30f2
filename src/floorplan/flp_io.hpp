// HotSpot .flp format reader.
//
// Format (one block per line):
//   <unit-name> <width> <height> <left-x> <bottom-y>
// '#' starts a comment; blank lines are ignored. Units are metres.
#pragma once

#include <iosfwd>
#include <string>

#include "floorplan/floorplan.hpp"

namespace thermo::floorplan {

/// Parses .flp text. Throws ParseError with a line number on malformed
/// input, and InvalidArgument as the Floorplan constructor does (bad or
/// duplicate blocks at their own line; no blocks or overlaps after the
/// last).
Floorplan parse_flp(std::istream& in, std::string name = "flp");

/// Parses .flp from a string.
Floorplan parse_flp_string(const std::string& text, std::string name = "flp");

/// Loads a .flp file. Throws ParseError when the file cannot be opened.
Floorplan load_flp(const std::string& path);

}  // namespace thermo::floorplan
