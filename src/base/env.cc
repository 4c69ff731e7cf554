#include "base/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/check.h"

namespace base {

namespace {

std::string Bound(uint64_t v) { return std::to_string(v); }

std::string Bound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

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

template <typename T>
std::optional<T> ParseEnv(const char* name, T min, T max, const char* what) {
  const char* env = EnvValue(name);
  if (env == nullptr) {
    return std::nullopt;
  }
  const std::optional<T> value = ParseWhole(env, min, max);
  SIM_CHECK_MSG(value.has_value(), "%s='%s' is not %s in [%s, %s]", name, env,
                what, Bound(min).c_str(), Bound(max).c_str());
  return value;
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
  return ParseEnv(name, min, max, "an integer");
}

std::optional<double> EnvRatio(const char* name, double min, double max) {
  return ParseEnv(name, min, max, "a ratio");
}

}  // namespace base
