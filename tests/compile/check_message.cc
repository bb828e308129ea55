// Built by two ctest cases (CMakeLists.txt): as is it must compile; with
// SRRA_EAGER_CHECK_MESSAGE defined it must not, because inside this project
// a check() message formatted before the call is a deleted overload
// (support/error.h).
#include "support/error.h"
#include "support/str.h"

int lazy(int argc) {
  srra::check(argc > 0, "argc must be positive");
  srra::check(argc > 0, [&] { return srra::cat("bad argc ", argc); });
#ifdef SRRA_EAGER_CHECK_MESSAGE
  srra::check(argc > 0, srra::cat("bad argc ", argc));
#endif
  return argc;
}
