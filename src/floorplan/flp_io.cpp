#include "floorplan/flp_io.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo::floorplan {

Floorplan parse_flp(std::istream& in, std::string name) {
  std::string line;
  std::size_t line_number = 0;
  // One block per content line, read as the floorplan asks for it: a
  // bad block fails at its own line, before a later line's ParseError.
  return Floorplan(std::move(name), [&]() -> std::optional<Block> {
    while (std::getline(in, line)) {
      ++line_number;
      const auto fields = split_whitespace(line_content(line));
      if (fields.empty()) continue;
      if (fields.size() != 5) {
        std::ostringstream os;
        os << "flp line " << line_number << ": expected 5 fields "
           << "(name width height left bottom), got " << fields.size();
        throw ParseError(os.str());
      }
      Block block;
      block.name = fields[0];
      const char* field_names[] = {"width", "height", "left-x", "bottom-y"};
      double* slots[] = {&block.width, &block.height, &block.x, &block.y};
      for (int i = 0; i < 4; ++i) {
        auto value = parse_double(fields[static_cast<std::size_t>(i) + 1]);
        if (!value) {
          std::ostringstream os;
          os << "flp line " << line_number << ": field '" << field_names[i]
             << "' is not a number: '"
             << fields[static_cast<std::size_t>(i) + 1] << "'";
          throw ParseError(os.str());
        }
        *slots[i] = *value;
      }
      return block;
    }
    return std::nullopt;
  });
}

Floorplan parse_flp_string(const std::string& text, std::string name) {
  std::istringstream in(text);
  return parse_flp(in, std::move(name));
}

Floorplan load_flp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open floorplan file '" + path + "'");
  // Derive a name from the file stem.
  std::string name = path;
  if (auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name.erase(0, slash + 1);
  }
  if (auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name.erase(dot);
  }
  return parse_flp(in, std::move(name));
}

}  // namespace thermo::floorplan
