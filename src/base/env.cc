#include "base/env.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/check.h"

namespace base {

namespace {

template <typename T>
std::optional<T> ParseWhole(const char* text, T min, T max) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // Written so that a NaN ratio fails the range test too.
  if (ec == std::errc() && ptr == end && value >= min && value <= max) {
    return value;
  }
  return std::nullopt;
}

}  // namespace

std::optional<uint64_t> ParseInt(const char* text, uint64_t min,
                                 uint64_t max) {
  return ParseWhole(text, min, max);
}

std::optional<double> ParseRatio(const char* text, double min, double max) {
  return ParseWhole(text, min, max);
}

const char* EnvValue(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' ? env : nullptr;
}

std::optional<uint64_t> EnvInt(const char* name, uint64_t min, uint64_t max) {
  const char* env = EnvValue(name);
  if (env == nullptr) {
    return std::nullopt;
  }
  const std::optional<uint64_t> value = ParseWhole(env, min, max);
  SIM_CHECK_MSG(value.has_value(), "%s='%s' is not an integer in [%s, %s]",
                name, env, std::to_string(min).c_str(),
                std::to_string(max).c_str());
  return value;
}

}  // namespace base
