#include "thermal/ptrace_io.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo::thermal {

PowerTrace PowerTrace::aligned_to(const floorplan::Floorplan& fp) const {
  PowerTrace out;
  std::vector<std::size_t> column(fp.size());
  for (std::size_t b = 0; b < fp.size(); ++b) {
    const std::string& name = fp.block(b).name;
    bool found = false;
    for (std::size_t u = 0; u < unit_names.size(); ++u) {
      if (unit_names[u] == name) {
        column[b] = u;
        found = true;
        break;
      }
    }
    if (!found) {
      throw ParseError("ptrace has no column for block '" + name + "'");
    }
    out.unit_names.push_back(name);
  }
  if (unit_names.size() != fp.size()) {
    throw ParseError("ptrace has " + std::to_string(unit_names.size()) +
                     " columns but the floorplan has " +
                     std::to_string(fp.size()) + " blocks");
  }
  for (const auto& step : steps) {
    std::vector<double> row(fp.size());
    for (std::size_t b = 0; b < fp.size(); ++b) row[b] = step[column[b]];
    out.steps.push_back(std::move(row));
  }
  return out;
}

PowerTrace parse_ptrace(std::istream& in) {
  PowerTrace trace;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto fields = split_whitespace(line_content(line));
    if (fields.empty()) continue;
    if (trace.unit_names.empty()) {
      trace.unit_names = fields;
      continue;
    }
    if (fields.size() != trace.unit_names.size()) {
      std::ostringstream os;
      os << "ptrace line " << line_number << ": expected "
         << trace.unit_names.size() << " values, got " << fields.size();
      throw ParseError(os.str());
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const std::string& field : fields) {
      const auto value = parse_double(field);
      if (!value || *value < 0.0) {
        std::ostringstream os;
        os << "ptrace line " << line_number
           << ": invalid power value '" << field << "'";
        throw ParseError(os.str());
      }
      row.push_back(*value);
    }
    trace.steps.push_back(std::move(row));
  }
  if (trace.unit_names.empty()) {
    throw ParseError("ptrace: missing header line of unit names");
  }
  return trace;
}

PowerTrace parse_ptrace_string(const std::string& text) {
  std::istringstream in(text);
  return parse_ptrace(in);
}

PowerTrace load_ptrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open ptrace file '" + path + "'");
  return parse_ptrace(in);
}

std::string to_ptrace_string(const PowerTrace& trace) {
  std::ostringstream out;
  for (std::size_t u = 0; u < trace.unit_names.size(); ++u) {
    out << (u == 0 ? "" : "\t") << trace.unit_names[u];
  }
  out << '\n';
  out.precision(9);
  for (const auto& step : trace.steps) {
    THERMO_REQUIRE(step.size() == trace.unit_names.size(),
                   "ptrace row width mismatch");
    for (std::size_t u = 0; u < step.size(); ++u) {
      out << (u == 0 ? "" : "\t") << step[u];
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace thermo::thermal
