// The multi-head evaluator (fl/evaluate.hpp): chunk invariance of inference,
// equivalence with per-head evaluation at any pool size, shared-prefix
// detection, input validation, and its observability contract.
//
// The properties run through AFL_PROP, a hand-rolled stand-in for
// rapidcheck's RC_GTEST_PROP_WITH_PARAMS: the body runs once per case with an
// Rng seeded from the case number, and a failure names that seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/build.hpp"
#include "arch/zoo.hpp"
#include "data/synthetic.hpp"
#include "engine/round_engine.hpp"
#include "fl/evaluate.hpp"
#include "nn/loss.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prune/model_pool.hpp"
#include "prune/rolling.hpp"
#include "prune/width_prune.hpp"
#include "util/thread_pool.hpp"

#define AFL_PROP(TestCase, Name, Cases)                                 \
  void afl_prop_##TestCase##_##Name(::afl::Rng& rng);                  \
  TEST(TestCase, Name) {                                                \
    for (std::uint64_t seed = 1; seed <= (Cases); ++seed) {             \
      SCOPED_TRACE("property case seed " + std::to_string(seed));       \
      ::afl::Rng rng(seed);                                             \
      afl_prop_##TestCase##_##Name(rng);                                \
      if (::testing::Test::HasFailure()) return;                        \
    }                                                                   \
  }                                                                     \
  void afl_prop_##TestCase##_##Name(::afl::Rng& rng)

namespace afl {
namespace {

constexpr std::size_t kHw = 8;

ArchSpec arch(std::uint64_t which) {
  switch (which % 3) {
    case 0:
      return mini_vgg(10, 3, kHw);
    case 1:
      return mini_resnet(10, 3, kHw);
    default:
      return mini_mobilenet(10, 3, kHw);
  }
}

Dataset test_set(std::size_t n, Rng& rng) {
  SyntheticTask task(SyntheticConfig::cifar10_like(kHw), rng);
  return task.generate(n, rng);
}

/// The L1/M1/S1 heads of the default pool, split from one random global:
/// the layers k <= I of M1/S1 are bitwise equal to L1's.
std::vector<Model> pool_heads(const ArchSpec& spec, Rng& rng) {
  const ModelPool pool(spec, PoolConfig::defaults_for(spec));
  const ParamSet global = build_full_model(spec, &rng).export_params();
  std::vector<Model> heads;
  for (Level level : {Level::kLarge, Level::kMedium, Level::kSmall}) {
    const std::size_t h = pool.level_head_index(level);
    heads.push_back(pool.build(h));
    heads.back().import_params(pool.split(global, h));
  }
  return heads;
}

std::vector<Model*> pointers(std::vector<Model>& models) {
  std::vector<Model*> out;
  for (Model& m : models) out.push_back(&m);
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Reference accuracy: one forward over the whole set, no chunking.
double whole_batch_accuracy(Model& model, const Dataset& data) {
  const Batch all = data.all();
  const Tensor logits = model.forward(all.images, /*train=*/false);
  return static_cast<double>(count_correct(logits, all.labels)) /
         static_cast<double>(data.size());
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

// Per-sample logits of inference do not depend on how the samples are
// batched, so chunked evaluation counts exactly what one big batch counts.
AFL_PROP(EvaluateProperty, LogitsAreChunkInvariant, 18) {
  const ArchSpec spec = arch(rng.uniform_index(3));
  std::vector<Model> heads = pool_heads(spec, rng);
  Model& model = heads[rng.uniform_index(heads.size())];
  const std::size_t n = 1 + rng.uniform_index(300);
  const Dataset data = test_set(n, rng);
  const Batch all = data.all();
  const Tensor whole = model.forward(all.images, false);
  const std::size_t row = whole.numel() / n;

  std::size_t start = 0;
  while (start < n) {
    const std::size_t size = std::min<std::size_t>(1 + rng.uniform_index(256), n - start);
    std::vector<std::size_t> idx(size);
    std::iota(idx.begin(), idx.end(), start);
    const Tensor part = model.forward(data.make_batch(idx).images, false);
    ASSERT_EQ(part.numel(), size * row);
    ASSERT_EQ(std::memcmp(part.data(), whole.data() + start * row,
                          part.numel() * sizeof(float)),
              0)
        << spec.name << ": chunk [" << start << ", " << start + size << ") of " << n;
    start += size;
  }
}

// The multi-head pass equals per-head evaluation bit for bit (accuracy and
// mean loss) and the whole-batch reference accuracy, at pool sizes 1, 2, 8.
AFL_PROP(EvaluateProperty, HeadsMatchPerHeadEvaluation, 12) {
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(8)};
  const ArchSpec spec = arch(rng.uniform_index(3));
  std::vector<Model> heads = pool_heads(spec, rng);
  EXPECT_GT(shared_prefix_layers(pointers(heads)), 0u) << spec.name;
  const Dataset data = test_set(1 + rng.uniform_index(200), rng);
  const std::size_t batch = 1 + rng.uniform_index(300);

  std::vector<EvalResult> single;
  for (Model& m : heads) {
    single.push_back(evaluate(m, data, batch));
    EXPECT_EQ(single.back().accuracy, whole_batch_accuracy(m, data));
  }
  for (ThreadPool& pool : pools) {
    const std::vector<EvalResult> multi =
        evaluate_heads(pointers(heads), data, batch, &pool);
    ASSERT_EQ(multi.size(), heads.size());
    for (std::size_t h = 0; h < heads.size(); ++h) {
      EXPECT_EQ(multi[h].samples, data.size());
      EXPECT_EQ(multi[h].accuracy, single[h].accuracy)
          << spec.name << " head " << h << " pool " << pool.size();
      EXPECT_EQ(multi[h].mean_loss, single[h].mean_loss)
          << spec.name << " head " << h << " pool " << pool.size();
    }
  }
}

// Heads that share no leading layer get prefix 0 and still evaluate exactly:
// HeteroFL's uniform width levels and RollingFL's windows (shapes differ from
// the first layer on), and Decoupled's independent per-level models (equal
// shapes in the full-width layers, different bits).
AFL_PROP(EvaluateProperty, DisjointHeadsHaveNoPrefix, 12) {
  ThreadPool pool(1 + rng.uniform_index(8));
  const std::uint64_t family = rng.uniform_index(3);  // hetero, rolling, decoupled
  const ArchSpec spec = family == 1 ? arch(0) : arch(rng.uniform_index(3));
  const ParamSet global = build_full_model(spec, &rng).export_params();
  const std::size_t round = rng.uniform_index(20);
  std::vector<Model> heads;
  if (family == 2) {
    for (int l = 0; l < 3; ++l) heads.push_back(std::move(pool_heads(spec, rng)[l]));
  } else {
    for (double ratio : {1.0, 0.66, 0.4}) {
      heads.push_back(build_model(spec, uniform_plan(spec, ratio)));
      heads.back().import_params(
          family == 1
              ? rolling_extract(global, spec, make_rolling_plan(spec, ratio, round))
              : prune_params(global, spec, uniform_plan(spec, ratio)));
    }
  }
  EXPECT_EQ(shared_prefix_layers(pointers(heads)), 0u) << spec.name << " family " << family;
  const Dataset data = test_set(1 + rng.uniform_index(100), rng);
  const std::size_t batch = 1 + rng.uniform_index(64);
  const std::vector<EvalResult> multi =
      evaluate_heads(pointers(heads), data, batch, &pool);
  for (std::size_t h = 0; h < heads.size(); ++h) {
    const EvalResult one = evaluate(heads[h], data, batch);
    EXPECT_EQ(multi[h].accuracy, one.accuracy) << spec.name << " head " << h;
    EXPECT_EQ(multi[h].mean_loss, one.mean_loss) << spec.name << " head " << h;
  }
}

// ---------------------------------------------------------------------------
// Examples
// ---------------------------------------------------------------------------

TEST(SharedPrefix, SingleOrIdenticalHeadsShareEverything) {
  Rng rng(3);
  const ArchSpec spec = arch(0);
  std::vector<Model> heads;
  const ParamSet params = build_full_model(spec, &rng).export_params();
  for (int i = 0; i < 2; ++i) {
    heads.push_back(build_full_model(spec));
    heads.back().import_params(params);
  }
  const std::size_t depth = heads[0].num_layers();
  EXPECT_EQ(shared_prefix_layers({&heads[0]}), depth);
  EXPECT_EQ(shared_prefix_layers(pointers(heads)), depth);
  EXPECT_EQ(shared_prefix_layers({}), 0u);

  // One flipped bit in the first layer's weights ends the prefix there.
  std::vector<ParamRef> refs;
  heads[1].layer(0).collect_params("", refs);
  ASSERT_FALSE(refs.empty());
  std::uint32_t bits;
  std::memcpy(&bits, refs[0].value->data(), sizeof bits);
  bits ^= 1u;
  std::memcpy(refs[0].value->data(), &bits, sizeof bits);
  EXPECT_EQ(shared_prefix_layers(pointers(heads)), 0u);
}

TEST(SharedPrefix, PoolHeadsBranchAfterTheFullWidthUnits) {
  Rng rng(4);
  const ArchSpec spec = arch(0);
  std::vector<Model> heads = pool_heads(spec, rng);
  const std::size_t prefix = shared_prefix_layers(pointers(heads));
  EXPECT_GT(prefix, 0u);
  EXPECT_LT(prefix, heads[0].num_layers());
  // The shared prefix computes the same activations in every head.
  const Dataset data = test_set(5, rng);
  Tensor a = data.all().images;
  Tensor b = a;
  for (std::size_t i = 0; i < prefix; ++i) {
    a = heads[0].layer(i).forward(a, false);
    b = heads[2].layer(i).forward(b, false);
  }
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST(Evaluate, ZeroBatchSizeThrowsInsteadOfHanging) {
  Rng rng(5);
  const ArchSpec spec = arch(0);
  Model model = build_full_model(spec, &rng);
  const Dataset data = test_set(4, rng);
  EXPECT_THROW(evaluate(model, data, 0), std::invalid_argument);
  EXPECT_THROW(evaluate_heads({&model}, data, 0), std::invalid_argument);
  try {
    evaluate(model, data, 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eval_batch"), std::string::npos) << e.what();
  }
}

TEST(Evaluate, RoundEngineRejectsZeroEvalBatch) {
  FlRunConfig config;
  config.eval_batch = 0;
  try {
    RoundEngine engine(config, nullptr);
    FAIL() << "eval_batch = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eval_batch"), std::string::npos) << e.what();
  }
}

TEST(Evaluate, RefusesToRunInsideTheLendingPoolsBatch) {
  Rng rng(6);
  const ArchSpec spec = arch(0);
  Model model = build_full_model(spec, &rng);
  const Dataset data = test_set(40, rng);
  for (std::size_t threads : {1u, 2u}) {
    ThreadPool pool(threads);
    pool.parallel_for(1, [&](std::size_t) {
      EXPECT_THROW(evaluate_heads({&model}, data, 16, &pool), std::logic_error);
    });
    // The pool is usable again once the outer batch ended.
    EXPECT_NO_THROW(evaluate_heads({&model}, data, 16, &pool));
  }
}

TEST(Evaluate, OneHistogramObservationAndOneTraceRecordPerHead) {
  Rng rng(7);
  const ArchSpec spec = arch(0);
  std::vector<Model> heads = pool_heads(spec, rng);
  const Dataset data = test_set(70, rng);
  obs::Histogram& hist = obs::metrics().histogram("afl.fl.evaluate.seconds");
  const std::uint64_t before = hist.count();

  const std::string path = ::testing::TempDir() + "evaluate_test_trace.jsonl";
  obs::set_trace_path(path);
  ThreadPool pool(2);
  const std::vector<EvalResult> results =
      evaluate_heads(pointers(heads), data, 256, &pool);
  obs::set_trace_path("");
  EXPECT_EQ(hist.count(), before + 1);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> records;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"evaluate\"") != std::string::npos) records.push_back(line);
  }
  ASSERT_EQ(records.size(), heads.size());
  for (std::size_t h = 0; h < heads.size(); ++h) {
    for (const char* key : {"\"samples\":70", "\"mean_loss\":", "\"dur_ms\":"}) {
      EXPECT_NE(records[h].find(key), std::string::npos) << records[h];
    }
    // Records follow head order: each carries its own head's accuracy
    // (traces print 6 significant digits).
    const std::size_t at = records[h].find("\"accuracy\":");
    ASSERT_NE(at, std::string::npos) << records[h];
    EXPECT_NEAR(std::strtod(records[h].c_str() + at + 11, nullptr), results[h].accuracy,
                1e-5)
        << records[h];
  }
}

}  // namespace
}  // namespace afl
