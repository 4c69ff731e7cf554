// The one parse rule for GEMINI_* environment knobs (BENCHMARKS.md
// "Environment-variable contract"): an unset or empty variable means the
// caller's default; any other value must parse as a whole and lie in
// [min, max], or SIM_CHECK aborts naming the variable and its value.  A
// typo never silently runs a different configuration.
#ifndef SRC_BASE_ENV_H_
#define SRC_BASE_ENV_H_

#include <cstdint>
#include <optional>

namespace base {

// The variable's value; null when it is unset or empty.
const char* EnvValue(const char* name);

// A decimal integer ("8") in [min, max]; nullopt when unset or empty.
std::optional<uint64_t> EnvInt(const char* name, uint64_t min, uint64_t max);

// A decimal ratio ("1.5") in [min, max]; nullopt when unset or empty.
std::optional<double> EnvRatio(const char* name, double min, double max);

}  // namespace base

#endif  // SRC_BASE_ENV_H_
