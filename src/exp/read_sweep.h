#ifndef BESYNC_EXP_READ_SWEEP_H_
#define BESYNC_EXP_READ_SWEEP_H_

#include <cstdint>
#include <vector>

#include "exp/experiment.h"
#include "exp/runner.h"

namespace besync {

/// Sweep over the read-path axes: client read rate x cache capacity x
/// eviction policy, on the cooperative scheduler. Measures how hit rate,
/// read-time staleness (p50/p95/p99) and the push-vs-pull bandwidth split
/// respond as caches shrink and read pressure grows — the scenario axis the
/// write-only engine could not express.
struct ReadSweepConfig {
  /// Base experiment: workload shape, harness timing, bandwidth knobs.
  /// The workload's read config is overridden per sweep point; the
  /// scheduler is always the cooperative protocol.
  ExperimentConfig base;
  /// Client read rates per cache (reads/second) to sweep.
  std::vector<double> read_rates = {2.0, 8.0, 32.0};
  /// Cache capacities (max resident objects per cache); 0 = unbounded.
  std::vector<int64_t> capacities = {0, 40, 10};
  /// Eviction policies swept at each finite capacity. Unbounded capacities
  /// run only the first policy — nothing ever evicts there, so sweeping
  /// policies would duplicate identical runs (the besync_sweep dedup
  /// idiom).
  std::vector<EvictionPolicy> evictions = {EvictionPolicy::kLru,
                                           EvictionPolicy::kLfu,
                                           EvictionPolicy::kDivergenceAware};
};

/// Builds the sweep's runner jobs, read_rate-major / capacity /
/// eviction-minor. Each job rebuilds its private workload (the
/// config-rebuild path of exp/runner.h), which is correct because jobs share
/// one workload config and differ only in read knobs, which consume no
/// generator randomness. A job's coordinates are its
/// `config.workload.read` fields.
Result<std::vector<ExperimentJob>> ReadSweepJobs(const ReadSweepConfig& config);

}  // namespace besync

#endif  // BESYNC_EXP_READ_SWEEP_H_
