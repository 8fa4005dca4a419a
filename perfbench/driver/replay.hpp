// replay.hpp — spans for the layers the trainer builds internally.
//
// The trainer constructs its sampler, clipping, noise mechanism, attack,
// GAR and optimizer itself, so the benchmark cannot wrap them inside a
// run without editing the library.  After a traced job, replay_run calls
// the same public functions (IidSampler::next_into, clip_l2_inplace,
// NoiseMechanism::perturb_into, Attack::forge_into,
// make_round_aggregator(...)->aggregate, SgdOptimizer::step) as often as
// the traced run did and at its shapes: one sample / clip / noise call per
// honest gradient the run computed, one forge per attacked round, one
// aggregate per round at the round's (n', f_e), one optimizer step per
// round.  Rows are real gradients of the run's model at its initial
// parameters, clipped and perturbed like an honest worker's.  Each layer
// gets one span covering all its calls (count = calls), except clipping,
// which gets one span per block of pre-copied gradients so the copy that
// restores an unclipped input stays outside the timed interval.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "data/dataset.hpp"
#include "models/model.hpp"

namespace perfbench {

/// Work counts the replay derived (per-layer metrics computed from shapes).
struct ReplayCounts {
  uint64_t forge_calls = 0;
  uint64_t shadow_evals = 0;  ///< adaptive attacks' shadow-GAR evaluations
  uint64_t aggregate_calls = 0;
  double pair_flops = 0.0;  ///< sum over aggregate calls of n'(n'-1)/2 * d
};

/// Replay the internally built layers of one traced run.  `grad_calls` is
/// the number of honest gradients the run computed (its models.grad span
/// count).  Runs under the config's math mode.
ReplayCounts replay_run(const dpbyz::ExperimentConfig& config, const dpbyz::RunResult& run,
                        const dpbyz::Model& model, const dpbyz::Dataset& train,
                        uint64_t grad_calls);

}  // namespace perfbench
