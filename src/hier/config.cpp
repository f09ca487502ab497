#include "hier/config.hpp"

#include "util/env.hpp"

namespace afl::hier {

HierConfig HierConfig::from_env() {
  HierConfig cfg;
  cfg.enabled = env_or("AFL_HIER", 0) != 0;
  cfg.shards = env_count("AFL_HIER_SHARDS", cfg.shards);
  cfg.sync_every = env_count("AFL_HIER_SYNC_EVERY", cfg.sync_every);
  return cfg;  // zero counts resolve to 1 in RoundEngine
}

}  // namespace afl::hier
