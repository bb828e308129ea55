// Small string utilities shared across the library: concatenation of
// heterogeneous values, joining, padding and fixed-precision number
// formatting (libstdc++ 12 lacks std::format, so we provide the handful of
// helpers the project needs).
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace srra {

namespace detail {
inline void cat_one(std::ostringstream& os) { (void)os; }
template <typename T, typename... Rest>
void cat_one(std::ostringstream& os, const T& value, const Rest&... rest) {
  os << value;
  cat_one(os, rest...);
}
}  // namespace detail

/// Concatenates all arguments with operator<< into one string.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  detail::cat_one(os, args...);
  return os.str();
}

/// Joins the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` at every occurrence of `sep` (no empty-token suppression).
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Left-pads `text` with spaces to at least `width` characters.
std::string pad_left(std::string_view text, std::size_t width);

/// Right-pads `text` with spaces to at least `width` characters.
std::string pad_right(std::string_view text, std::size_t width);

/// Formats `value` with exactly `digits` digits after the decimal point.
std::string to_fixed(double value, int digits);

/// Formats a ratio as a signed percentage string, e.g. "-12.3%".
std::string to_percent(double ratio, int digits = 1);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// `name` lower-cased with '-' folded to '_': the key that user-typed names
/// (kernels, kernel and algorithm sets) are matched by.
std::string spelling_key(std::string_view name);

/// Formats an integer with thousands separators: 1234567 -> "1,234,567".
std::string with_commas(long long value);

}  // namespace srra
