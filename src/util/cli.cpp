#include "util/cli.hpp"

#include <iostream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace thermo {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_option(const std::string& name, const std::string& help,
                           bool takes_value,
                           std::function<void(const std::string&)> apply) {
  THERMO_REQUIRE(!name.empty(), "option name must be non-empty");
  THERMO_REQUIRE(options_.find(name) == options_.end(),
                 "duplicate option --" + name);
  options_[name] = Option{help, takes_value, std::move(apply)};
  order_.push_back(name);
}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         bool* target) {
  add_option(name, help, /*takes_value=*/false,
             [target](const std::string&) { *target = true; });
}

void CliParser::add_double(const std::string& name, const std::string& help,
                           double* target) {
  add_option(name, help, /*takes_value=*/true, [name, target](const std::string& v) {
    auto parsed = parse_double(v);
    if (!parsed) throw ParseError("--" + name + ": expected a number, got '" + v + "'");
    *target = *parsed;
  });
}

void CliParser::add_int(const std::string& name, const std::string& help,
                        long long* target) {
  add_option(name, help, /*takes_value=*/true, [name, target](const std::string& v) {
    auto parsed = parse_int(v);
    if (!parsed) throw ParseError("--" + name + ": expected an integer, got '" + v + "'");
    *target = *parsed;
  });
}

void CliParser::add_string(const std::string& name, const std::string& help,
                           std::string* target) {
  add_option(name, help, /*takes_value=*/true,
             [target](const std::string& v) { *target = v; });
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (!starts_with(arg, "--")) {
      throw ParseError("unexpected argument '" + arg + "'");
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_inline_value = true;
    }
    auto it = options_.find(body);
    if (it == options_.end()) throw ParseError("unknown option --" + body);
    const Option& opt = it->second;
    if (opt.takes_value) {
      if (!has_inline_value) {
        if (i + 1 >= argc) throw ParseError("--" + body + " requires a value");
        value = argv[++i];
      }
      opt.apply(value);
    } else {
      if (has_inline_value) throw ParseError("--" + body + " does not take a value");
      opt.apply("");
    }
  }
  return true;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name << (opt.takes_value ? " <value>" : "") << "\n      "
       << opt.help << '\n';
  }
  os << "  --help\n      Show this message\n";
  return os.str();
}

}  // namespace thermo
