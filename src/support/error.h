// Error type and checked-precondition helpers for the srra library.
//
// Following the C++ Core Guidelines (E.2, I.6) we report errors that cannot
// be handled locally via exceptions and express preconditions as checks at
// function entry. `check()` is the library-wide precondition/invariant
// helper; it throws `srra::Error` carrying the failing location.
//
// A check's message costs nothing unless the check fails. A fixed message
// is a string literal; a message that needs formatting is a callable that
// builds it, run only on failure:
//
//   check(n > 0, "budget must be positive");
//   check(lo <= hi, [&] { return cat("bad budget spec '", spec, "': lo > hi"); });
//
// Inside the library (SRRA_LAZY_CHECK_MESSAGES, set for every target of the
// root CMake project) a message built before the call — `check(ok, cat(...))`
// — does not compile: it would format on every call, failing or not, and
// on hot paths such as the JSON parser that formatting was most of the work.
// `fail()` runs only on the failure path, so it takes finished strings.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace srra {

/// Exception thrown on any srra precondition or invariant violation.
/// what() carries the failing location ("file:line (function): message");
/// message() is the bare message, free of build paths and line numbers.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : Error(what, what.size()) {}
  /// `what` ends with the bare message, which is its last `message_size`
  /// bytes.
  Error(const std::string& what, std::size_t message_size)
      : std::runtime_error(what), message_offset_(what.size() - message_size) {}

  std::string_view message() const {
    return std::string_view(what()).substr(message_offset_);
  }

 private:
  std::size_t message_offset_ = 0;
};

/// C++17 stand-in for std::source_location (C++20), backed by the GCC/Clang
/// __builtin_FILE/__builtin_LINE/__builtin_FUNCTION intrinsics so call sites
/// still capture the *caller's* location through default arguments.
class SourceLocation {
 public:
  static SourceLocation current(const char* file = __builtin_FILE(),
                                int line = __builtin_LINE(),
                                const char* function = __builtin_FUNCTION()) {
    SourceLocation loc;
    loc.file_ = file;
    loc.line_ = line;
    loc.function_ = function;
    return loc;
  }

  const char* file_name() const { return file_; }
  int line() const { return line_; }
  const char* function_name() const { return function_; }

 private:
  const char* file_ = "";
  int line_ = 0;
  const char* function_ = "";
};

namespace detail {
[[noreturn]] void throw_error(std::string_view message, SourceLocation where);

/// A callable that builds a check message on demand.
template <typename F>
using MessageMaker =
    std::enable_if_t<std::is_invocable_r_v<std::string, F&>, int>;
}  // namespace detail

/// Checks a precondition/invariant; throws srra::Error with location info on
/// failure. Used instead of assert() so violations are testable and carry a
/// message even in release builds. (A literal binds here rather than to the
/// deleted std::string&& overload below.)
inline void check(bool condition, const char* message,
                  SourceLocation where = SourceLocation::current()) {
  if (!condition) detail::throw_error(message, where);
}

inline void check(bool condition, std::string_view message,
                  SourceLocation where = SourceLocation::current()) {
  if (!condition) detail::throw_error(message, where);
}

/// The lazy form: `make_message()` runs only when the check fails.
template <typename F, detail::MessageMaker<F> = 0>
inline void check(bool condition, F&& make_message,
                  SourceLocation where = SourceLocation::current()) {
  if (!condition) detail::throw_error(make_message(), where);
}

#ifdef SRRA_LAZY_CHECK_MESSAGES
/// A message built before the call formats on every call; pass a lambda.
void check(bool condition, std::string&& message,
           SourceLocation where = SourceLocation::current()) = delete;
#endif

/// Unconditional failure with location info (e.g. unreachable switch arms).
[[noreturn]] inline void fail(std::string_view message,
                              SourceLocation where = SourceLocation::current()) {
  detail::throw_error(message, where);
}

}  // namespace srra
