#pragma once
// Population dynamics: deterministic churn schedules and per-client channel
// profiles for flat, hierarchical and async runs (docs/POPULATION.md).
//
// The Population owns one PresenceSchedule per client. Presence is a pure
// function of (seed, round, client) — the parametric ring-rotation process
// draws a fixed per-client phase from Rng::derive and shifts the active
// window at every rotation epoch, so exactly `rotate_frac` of the active set
// departs (and an equal-sized absent slice joins) per epoch while the active
// population size stays constant. Go-dark stretches are i.i.d. per
// (client, dark block) on a second derived stream. Scripted trace records
// override the parametric process per client. Nothing here draws from any
// engine RNG, so enabling churn never perturbs the training / selection /
// transport streams of the clients that are present, and snapshot/resume
// needs no churn state at all.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.hpp"
#include "pop/config.hpp"
#include "sim/device.hpp"

namespace afl::pop {

/// Membership deltas of one round vs. the previous one, for telemetry.
struct RoundChurn {
  std::size_t active = 0;      // clients present this round
  std::size_t dark = 0;        // clients dark this round
  std::size_t joins = 0;       // absent (r-1) -> present/dark (r)
  std::size_t departures = 0;  // present/dark (r-1) -> absent (r)
};

class Population {
 public:
  /// Builds the population, or returns nullptr when `config.enabled` is
  /// false (callers treat a null Population as a static fleet). Throws
  /// std::runtime_error on an unreadable / malformed scripted trace.
  static std::unique_ptr<Population> create(const PopConfig& config,
                                            std::size_t num_clients,
                                            std::uint64_t seed);

  const PopConfig& config() const { return config_; }
  std::size_t size() const { return num_clients_; }

  /// Presence of `client` at `round` (pure; thread-safe).
  PresenceSchedule::State state(std::size_t client, std::size_t round) const;

  /// Installs this population's per-client schedules into the fleet. The
  /// Population must outlive the devices' use of them.
  void attach(std::vector<DeviceSim>& devices) const;

  /// Samples per-client channel profiles around `base` (no-op container when
  /// config().channels is false). Deterministic in (seed, client).
  void sample_channels(const net::ChannelConfig& base);
  bool has_channels() const { return !channels_.empty(); }
  const std::vector<net::ChannelConfig>& channels() const { return channels_; }

  /// Per-client channel quality in (0, 1]: goodput of the client's channel
  /// relative to the best sampled one (reference 64 KiB frame, loss-
  /// discounted). Empty when per-client channels are off. Fed to the RL
  /// selector as an observation feature.
  const std::vector<double>& channel_quality() const { return quality_; }

  /// Scans the fleet and reports membership deltas for `round` (round 0
  /// reports zero joins/departures — there is no previous round).
  RoundChurn round_churn(std::size_t round) const;

 private:
  Population(const PopConfig& config, std::size_t num_clients, std::uint64_t seed);

  /// Parametric + scripted presence, before dark overlays.
  bool member_at(std::size_t client, std::size_t round) const;
  bool dark_at(std::size_t client, std::size_t round) const;

  /// PresenceSchedule facade over one client of this population.
  class ClientView final : public PresenceSchedule {
   public:
    void bind(const Population* pop, std::size_t client) {
      pop_ = pop;
      client_ = client;
    }
    State state(std::size_t round) const override {
      return pop_->state(client_, round);
    }

   private:
    const Population* pop_ = nullptr;
    std::size_t client_ = 0;
  };

  /// Scripted override for one client (docs/POPULATION.md trace format).
  struct Script {
    bool used = false;
    bool initial_present = true;
    std::vector<std::pair<std::size_t, bool>> toggles;  // (round, present), sorted
    std::vector<std::pair<std::size_t, std::size_t>> dark;  // [start, end)
  };

  PopConfig config_;
  std::size_t num_clients_;
  std::uint64_t seed_;
  std::vector<double> phase_;        // per-client ring position in [0, 1)
  std::vector<Script> scripts_;      // empty when no trace file
  std::vector<ClientView> views_;    // stable storage for attach()
  std::vector<net::ChannelConfig> channels_;
  std::vector<double> quality_;
};

}  // namespace afl::pop
