// Tiny declarative command-line option parser for examples and benches.
//
//   CliParser cli("quickstart", "Generate a thermal-safe schedule");
//   double tl = 145.0;
//   cli.add_double("tl", "Maximum allowable temperature [C]", &tl);
//   cli.parse(argc, argv);   // throws ParseError on bad input
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace thermo {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  void add_flag(const std::string& name, const std::string& help, bool* target);
  void add_double(const std::string& name, const std::string& help, double* target);
  void add_int(const std::string& name, const std::string& help, long long* target);
  void add_string(const std::string& name, const std::string& help, std::string* target);

  /// Parses `--name value` / `--name=value` / `--flag` arguments.
  /// Returns false (after printing usage) when --help was requested.
  /// Throws ParseError on unknown options, malformed values, or any
  /// argument that is neither an option nor an option's value.
  bool parse(int argc, const char* const* argv);

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    bool takes_value;
    std::function<void(const std::string&)> apply;
  };
  void add_option(const std::string& name, const std::string& help,
                  bool takes_value, std::function<void(const std::string&)> apply);

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> order_;
};

}  // namespace thermo
