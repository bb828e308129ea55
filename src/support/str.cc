#include "support/str.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace srra {

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string pad_left(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.insert(0, width - out.size(), ' ');
  return out;
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string to_fixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

std::string to_percent(double ratio, int digits) {
  const double pct = ratio * 100.0;
  std::string body = to_fixed(pct, digits);
  if (pct > 0.0 && body[0] != '-') body = "+" + body;
  return body + "%";
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string spelling_key(std::string_view name) {
  std::string key;
  for (const char c : name) {
    key += c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return key;
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

}  // namespace srra
