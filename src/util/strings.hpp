// Small string helpers used by parsers and report writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace thermo {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string> split_whitespace(std::string_view s);

/// The content of one `.flp` or `.ptrace` line: what precedes its first
/// '#' (a comment), trimmed. Empty for a blank or comment-only line,
/// which the parsers skip.
std::string_view line_content(std::string_view line);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a floating point number; std::nullopt if the whole string is not
/// a valid number.
std::optional<double> parse_double(std::string_view s);

/// Parses a non-negative integer; std::nullopt on failure.
std::optional<long long> parse_int(std::string_view s);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// printf-style %.*f formatting with fixed precision.
std::string format_double(double value, int precision);

}  // namespace thermo
