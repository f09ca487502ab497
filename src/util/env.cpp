#include "util/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <system_error>

namespace afl {
namespace {

/// Parses the whole of `v` as a T (std::from_chars: no whitespace, no
/// trailing characters, no out-of-range values), naming `name` on failure.
template <typename T>
T parse_env(const std::string& name, const std::string& v) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument(name + "=" + v + ": value out of range");
  }
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(name + "=" + v + ": not a number");
  }
  return out;
}

}  // namespace

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

int env_or(const std::string& name, int fallback) {
  const std::string v = env_or(name, std::string());
  return v.empty() ? fallback : parse_env<int>(name, v);
}

double env_or(const std::string& name, double fallback) {
  const std::string v = env_or(name, std::string());
  if (v.empty()) return fallback;
  const double out = parse_env<double>(name, v);
  if (!std::isfinite(out)) {
    throw std::invalid_argument(name + "=" + v + ": not a finite number");
  }
  return out;
}

std::size_t env_count(const std::string& name, std::size_t fallback) {
  const std::string v = env_or(name, std::string());
  if (v.empty()) return fallback;
  const long long out = parse_env<long long>(name, v);
  if (out < 0) throw std::invalid_argument(name + "=" + v + ": must be >= 0");
  return static_cast<std::size_t>(out);
}

BenchScale bench_scale() {
  const std::string v = env_or("ADAPTIVEFL_BENCH_SCALE", "smoke");
  if (v == "full") return BenchScale::kFull;
  return BenchScale::kSmoke;
}

const char* bench_scale_name(BenchScale scale) {
  return scale == BenchScale::kFull ? "full" : "smoke";
}

}  // namespace afl
