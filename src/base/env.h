// The one parse rule for numbers read from GEMINI_* environment knobs
// (BENCHMARKS.md "Environment-variable contract") and from command-line
// flags: the whole string must parse and lie in [min, max].  For a knob,
// an unset or empty variable means the caller's default, and any other
// value that breaks the rule makes SIM_CHECK abort naming the variable and
// its value.  A typo never silently runs a different configuration.
#ifndef SRC_BASE_ENV_H_
#define SRC_BASE_ENV_H_

#include <cstdint>
#include <optional>

namespace base {

// `text` as a whole decimal integer ("8") in [min, max]; nullopt otherwise.
std::optional<uint64_t> ParseInt(const char* text, uint64_t min, uint64_t max);

// `text` as a whole decimal ratio ("1.5") in [min, max]; nullopt otherwise,
// NaN included.
std::optional<double> ParseRatio(const char* text, double min, double max);

// The variable's value; null when it is unset or empty.
const char* EnvValue(const char* name);

// A decimal integer ("8") in [min, max]; nullopt when unset or empty.
std::optional<uint64_t> EnvInt(const char* name, uint64_t min, uint64_t max);

}  // namespace base

#endif  // SRC_BASE_ENV_H_
