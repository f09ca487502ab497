#include "async/config.hpp"

#include "util/env.hpp"

namespace afl::async {

AsyncConfig AsyncConfig::from_env() {
  AsyncConfig cfg;
  cfg.enabled = env_or("AFL_ASYNC", 0) != 0;
  cfg.buffer_size = env_count("AFL_ASYNC_BUFFER", cfg.buffer_size);
  cfg.concurrency = env_count("AFL_ASYNC_CONCURRENCY", cfg.concurrency);
  cfg.staleness_alpha = env_or("AFL_ASYNC_ALPHA", cfg.staleness_alpha);
  cfg.max_staleness = env_count("AFL_ASYNC_MAX_STALENESS", cfg.max_staleness);
  cfg.failure_timeout_s =
      env_or("AFL_ASYNC_TIMEOUT_MS", cfg.failure_timeout_s * 1000.0) / 1000.0;
  cfg.max_reuploads = env_count("AFL_ASYNC_REUPLOADS", cfg.max_reuploads);
  cfg.reupload_backoff_s =
      env_or("AFL_ASYNC_REUPLOAD_BACKOFF_MS", cfg.reupload_backoff_s * 1000.0) /
      1000.0;
  return cfg;
}

}  // namespace afl::async
