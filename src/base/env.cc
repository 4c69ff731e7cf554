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
std::optional<T> ParseEnv(const char* name, T min, T max, const char* what) {
  const char* env = EnvValue(name);
  if (env == nullptr) {
    return std::nullopt;
  }
  const char* end = env + std::strlen(env);
  T value{};
  const auto [ptr, ec] = std::from_chars(env, end, value);
  // Written so that a NaN ratio fails the range test too.
  SIM_CHECK_MSG(ec == std::errc() && ptr == end && value >= min &&
                    value <= max,
                "%s='%s' is not %s in [%s, %s]", name, env, what,
                Bound(min).c_str(), Bound(max).c_str());
  return value;
}

}  // namespace

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
