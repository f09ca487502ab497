#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace afl {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproxHalf) {
  Rng rng(3);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng(9);
  for (double shape : {0.3, 1.0, 2.5, 8.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, shape * 0.08) << "shape " << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(13);
  for (double alpha : {0.1, 0.3, 0.6, 1.0, 10.0}) {
    const auto v = rng.dirichlet(alpha, 10);
    ASSERT_EQ(v.size(), 10u);
    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "alpha " << alpha;
    for (double x : v) EXPECT_GE(x, 0.0);
  }
}

TEST(Rng, DirichletSmallAlphaIsSkewed) {
  Rng rng(17);
  // For alpha = 0.1 the max coordinate should usually dominate; for
  // alpha = 100 it should be near uniform.
  double max_small = 0.0, max_large = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto s = rng.dirichlet(0.1, 10);
    auto l = rng.dirichlet(100.0, 10);
    max_small += *std::max_element(s.begin(), s.end());
    max_large += *std::max_element(l.begin(), l.end());
  }
  EXPECT_GT(max_small / trials, 0.5);
  EXPECT_LT(max_large / trials, 0.2);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / 40000, 0.75, 0.02);
}

TEST(Rng, CategoricalSingles) {
  Rng rng(23);
  std::vector<double> w = {0.0, 0.0, 5.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(w), 2u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, ForkIndependence) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream should differ from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DeriveIsStatelessAndStable) {
  // derive() must not depend on any generator's position: only on the three
  // key words. Same key -> same stream, every time.
  Rng a = Rng::derive(7, 3, 12);
  Rng b = Rng::derive(7, 3, 12);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DeriveKeysProduceIndependentStreams) {
  // Changing any single key word must change the stream.
  const std::uint64_t base = Rng::derive(7, 3, 12).next_u64();
  EXPECT_NE(base, Rng::derive(8, 3, 12).next_u64());
  EXPECT_NE(base, Rng::derive(7, 4, 12).next_u64());
  EXPECT_NE(base, Rng::derive(7, 3, 13).next_u64());
  // Swapping round and client must not collide either (the chained
  // finalizer is not symmetric in its inputs).
  EXPECT_NE(Rng::derive(7, 3, 12).next_u64(), Rng::derive(7, 12, 3).next_u64());
}

TEST(Rng, DeriveStreamsDoNotOverlapPairwise) {
  // A cheap overlap check across a fleet of (round, client) keys: the first
  // 8 draws of every stream are all distinct.
  std::vector<std::uint64_t> draws;
  for (std::uint64_t round = 1; round <= 4; ++round) {
    for (std::uint64_t client = 0; client < 8; ++client) {
      Rng rng = Rng::derive(42, round, client);
      for (int i = 0; i < 8; ++i) draws.push_back(rng.next_u64());
    }
  }
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::adjacent_find(draws.begin(), draws.end()), draws.end());
}

TEST(Rng, DeriveGoldenValues) {
  // Pinned first draws: any change to the derivation chain silently breaks
  // cross-version reproducibility, so fail loudly instead.
  EXPECT_EQ(Rng::derive(1, 1, 0).next_u64(), 0x55d6fd43a7dbe9a5ULL);
  EXPECT_EQ(Rng::derive(42, 3, 7).next_u64(), 0x3e8439730e9669e3ULL);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a"), std::string::npos);
  EXPECT_NE(md.find("| 3"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.to_markdown().find("x"), std::string::npos);
  EXPECT_NE(t.to_csv().find("x,,"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"name"});
  t.add_row({"a,b \"quoted\""});
  EXPECT_NE(t.to_csv().find("\"a,b \"\"quoted\"\"\""), std::string::npos);
}

TEST(Table, Formatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_pct(0.8312), "83.12");
  EXPECT_EQ(Table::fmt_count(33650000), "33.65M");
  EXPECT_EQ(Table::fmt_count(1500), "1.50K");
  EXPECT_EQ(Table::fmt_count(42), "42");
}

TEST(Env, FallbacksWhenUnset) {
  ::unsetenv("AFL_TEST_ENV_X");
  EXPECT_EQ(env_or("AFL_TEST_ENV_X", std::string("dflt")), "dflt");
  EXPECT_EQ(env_or("AFL_TEST_ENV_X", 5), 5);
  EXPECT_DOUBLE_EQ(env_or("AFL_TEST_ENV_X", 2.5), 2.5);
}

TEST(Env, ReadsValues) {
  ::setenv("AFL_TEST_ENV_X", "17", 1);
  EXPECT_EQ(env_or("AFL_TEST_ENV_X", 5), 17);
  EXPECT_EQ(env_or("AFL_TEST_ENV_X", std::string("d")), "17");
  ::setenv("AFL_TEST_ENV_X", "-3", 1);
  EXPECT_EQ(env_or("AFL_TEST_ENV_X", 5), -3);
  ::setenv("AFL_TEST_ENV_X", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_or("AFL_TEST_ENV_X", 2.5), 0.25);
  ::setenv("AFL_TEST_ENV_X", "1e3", 1);
  EXPECT_DOUBLE_EQ(env_or("AFL_TEST_ENV_X", 2.5), 1000.0);
  ::unsetenv("AFL_TEST_ENV_X");
}

/// The invalid_argument message of env_or(name, fallback), or "" if none.
template <typename T>
std::string env_error(const char* value, T fallback) {
  ::setenv("AFL_TEST_ENV_X", value, 1);
  std::string what;
  try {
    env_or("AFL_TEST_ENV_X", fallback);
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  ::unsetenv("AFL_TEST_ENV_X");
  return what;
}

TEST(Env, RejectsMalformedNumbers) {
  // A switch spelled as a word must not silently read as 0 (disabled).
  for (const char* bad : {"true", "yes", "abc", " 4", "+", "-"}) {
    SCOPED_TRACE(bad);
    EXPECT_NE(env_error(bad, 0), "");
    EXPECT_NE(env_error(bad, 0.0), "");
  }
  const std::string what = env_error("abc", 0);
  EXPECT_NE(what.find("AFL_TEST_ENV_X"), std::string::npos) << what;
  EXPECT_NE(what.find("abc"), std::string::npos) << what;
}

TEST(Env, RejectsTrailingGarbage) {
  EXPECT_NE(env_error("4x", 1), "");
  EXPECT_NE(env_error("4 ", 1), "");
  EXPECT_NE(env_error("1.5", 1), "");  // not an integer
  EXPECT_NE(env_error("0.5ms", 1.0), "");
  EXPECT_NE(env_error("1e3x", 1.0), "");
}

TEST(Env, RejectsOverflow) {
  EXPECT_NE(env_error("2147483648", 0), "");
  EXPECT_NE(env_error("-2147483649", 0), "");
  EXPECT_NE(env_error("99999999999999999999999", 0), "");
  EXPECT_NE(env_error("1e999", 0.0), "");
  const std::string what = env_error("2147483648", 0);
  EXPECT_NE(what.find("2147483648"), std::string::npos) << what;
}

TEST(Env, RejectsNonFiniteDoubles) {
  // std::from_chars reads these; a NaN or infinite knob must not get through.
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(bad);
    const std::string what = env_error(bad, 0.5);
    EXPECT_NE(what.find("AFL_TEST_ENV_X"), std::string::npos) << what;
  }
  ::unsetenv("AFL_TEST_ENV_X");
}

TEST(Env, CountsRejectNegativeValues) {
  ::unsetenv("AFL_TEST_ENV_X");
  EXPECT_EQ(env_count("AFL_TEST_ENV_X", 4), 4u);
  ::setenv("AFL_TEST_ENV_X", "0", 1);
  EXPECT_EQ(env_count("AFL_TEST_ENV_X", 4), 0u);
  ::setenv("AFL_TEST_ENV_X", "12", 1);
  EXPECT_EQ(env_count("AFL_TEST_ENV_X", 4), 12u);
  for (const char* bad : {"-1", "-100", "1.5", "abc"}) {
    SCOPED_TRACE(bad);
    ::setenv("AFL_TEST_ENV_X", bad, 1);
    try {
      env_count("AFL_TEST_ENV_X", 4);
      ADD_FAILURE() << "env_count accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("AFL_TEST_ENV_X"), std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("AFL_TEST_ENV_X");
}

}  // namespace
}  // namespace afl
