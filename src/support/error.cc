#include "support/error.h"

#include <sstream>

namespace srra::detail {

void throw_error(std::string_view message, SourceLocation where) {
  std::ostringstream os;
  os << where.file_name() << ':' << where.line() << " (" << where.function_name()
     << "): " << message;
  throw Error(os.str(), message.size());
}

}  // namespace srra::detail
