#pragma once
// Environment-variable configuration helpers for bench / example binaries.

#include <string>

namespace afl {

/// Returns the env var value or `fallback` when unset / empty. The numeric
/// overloads parse the whole value strictly and throw std::invalid_argument
/// naming the variable on malformed input, trailing characters or overflow.
std::string env_or(const std::string& name, const std::string& fallback);
int env_or(const std::string& name, int fallback);
double env_or(const std::string& name, double fallback);

/// Experiment scale selected via ADAPTIVEFL_BENCH_SCALE.
/// - kSmoke (default): seconds-per-run configs so the whole bench suite
///   finishes quickly on a 1-core box.
/// - kFull: longer runs (more rounds / data) closer to the paper's regime.
enum class BenchScale { kSmoke, kFull };
BenchScale bench_scale();
const char* bench_scale_name(BenchScale scale);

}  // namespace afl
