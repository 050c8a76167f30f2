#include "util/error.hpp"

#include <sstream>
#include <string_view>

namespace thermo::detail {

[[noreturn]] void throw_require_failure(const char* kind, const char* expr,
                                        const std::string& message) {
  // No source location: the message reaches ok:false serve records, which
  // must not depend on where the library was built.
  std::ostringstream os;
  os << kind << " failed [" << expr << "]: " << message;
  if (std::string_view(kind) == "invariant") {
    throw LogicError(os.str());
  }
  throw InvalidArgument(os.str());
}

}  // namespace thermo::detail
