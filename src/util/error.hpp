// Error-handling primitives shared by every ThermoSched module.
//
// The library signals failure to perform a required task with exceptions
// (Core Guidelines I.10). Precondition violations throw `InvalidArgument`;
// internal invariant breaks throw `LogicError`; numeric breakdowns
// (singular systems, non-convergence) throw `NumericalError`; malformed
// external inputs throw `ParseError`.
#pragma once

#include <stdexcept>
#include <string>

namespace thermo {

/// Base class of every exception thrown by ThermoSched.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// A caller violated a documented precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// An internal invariant was broken (a bug in the library, not the caller).
class LogicError : public Error {
 public:
  using Error::Error;
};

/// A numeric algorithm could not complete (singular matrix, divergence...).
class NumericalError : public Error {
 public:
  using Error::Error;
};

/// An external input (file, string) could not be parsed.
class ParseError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn]] void throw_require_failure(const char* kind, const char* expr,
                                        const std::string& message);
}  // namespace detail

}  // namespace thermo

/// Precondition check: throws thermo::InvalidArgument when `cond` is false.
#define THERMO_REQUIRE(cond, message)                                     \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::thermo::detail::throw_require_failure("precondition", #cond,      \
                                              (message));                 \
    }                                                                     \
  } while (false)

/// Internal invariant check: throws thermo::LogicError when `cond` is false.
#define THERMO_ENSURE(cond, message)                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::thermo::detail::throw_require_failure("invariant", #cond,         \
                                              (message));                 \
    }                                                                     \
  } while (false)
