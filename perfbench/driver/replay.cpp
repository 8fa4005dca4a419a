#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "aggregation/workspace.hpp"
#include "attacks/adaptive.hpp"
#include "core/trainer.hpp"
#include "data/samplers.hpp"
#include "math/gradient_batch.hpp"
#include "math/kernels.hpp"
#include "models/clipping.hpp"
#include "models/optimizer.hpp"
#include "trace.hpp"

namespace perfbench {

using dpbyz::GradientBatch;

ReplayCounts replay_run(const dpbyz::ExperimentConfig& config, const dpbyz::RunResult& run,
                        const dpbyz::Model& model, const dpbyz::Dataset& train,
                        uint64_t grad_calls) {
  const dpbyz::kernels::MathModeScope math_mode(
      config.fast_math ? dpbyz::kernels::MathMode::kFast : dpbyz::kernels::MathMode::kScalar);
  ReplayCounts counts;
  const size_t d = model.dim();
  const size_t n = config.num_workers;
  const size_t byz = config.attack_enabled ? config.num_byzantine : 0;
  const size_t honest = n - byz;
  const size_t rounds = run.round_rows.size();

  dpbyz::Rng rng = dpbyz::Rng(config.seed).derive("perfbench-replay");
  dpbyz::IidSampler sampler(train.size());
  std::vector<size_t> batch;
  const dpbyz::Vector w0 = model.initial_parameters();

  // Honest rows: real gradients at w0 on fresh batches; `raw` keeps the
  // unclipped first one for the clip replay.
  GradientBatch clean(honest, d);
  dpbyz::Vector raw(d);
  for (size_t i = 0; i < honest; ++i) {
    sampler.next_into(config.batch_size, rng, batch);
    model.batch_gradient_into(w0, train, batch, clean.row(i));
    if (i == 0) std::copy(clean.row(0).begin(), clean.row(0).end(), raw.begin());
    if (config.clip_enabled) dpbyz::clip_l2_inplace(clean.row(i), config.clip_norm);
  }
  const auto mechanism = dpbyz::make_mechanism(config, d);
  GradientBatch sent(n, d);
  for (size_t i = 0; i < honest; ++i) mechanism->perturb_into(clean.row(i), rng, sent.row(i));

  {
    trace::Span span("data.sample", grad_calls);
    for (uint64_t i = 0; i < grad_calls; ++i) sampler.next_into(config.batch_size, rng, batch);
  }

  if (config.clip_enabled) {
    // Blocks of unclipped copies sized to stay cache-resident like the
    // worker's freshly written gradient; the refill is not timed.
    const size_t block = std::clamp<size_t>(262144 / (8 * d), 1, 64);
    GradientBatch pool(block, d);
    for (uint64_t done = 0; done < grad_calls;) {
      const size_t k = static_cast<size_t>(std::min<uint64_t>(block, grad_calls - done));
      for (size_t j = 0; j < k; ++j) pool.set_row(j, raw);
      trace::Span span("models.clip", k);
      for (size_t j = 0; j < k; ++j) dpbyz::clip_l2_inplace(pool.row(j), config.clip_norm);
      done += k;
    }
  }

  if (config.dp_enabled) {
    dpbyz::Vector out(d);
    trace::Span span("dp.noise", grad_calls);
    for (uint64_t i = 0; i < grad_calls; ++i)
      mechanism->perturb_into(clean.row(i % honest), rng, out);
  }

  if (config.attack_enabled && byz > 0) {
    const auto attack = dpbyz::make_attack(
        config.attack, config.attack_nu,
        dpbyz::AdaptiveSpec{config.gar, config.prune, config.adapt_probes, config.adapt_budget});
    const bool observe_clean = config.attack_observes == "clean";
    dpbyz::Vector forged(d);
    {
      trace::Span span("attacks.forge", rounds);
      for (size_t t = 1; t <= rounds; ++t) {
        const dpbyz::AttackContext ctx{observe_clean ? clean : sent, honest, byz, t,
                                       std::min(t - 1, config.pipeline_depth)};
        attack->forge_into(ctx, rng, forged);
      }
    }
    counts.forge_calls = rounds;
    if (const auto* probe = dynamic_cast<const dpbyz::ShadowProbe*>(attack.get()))
      counts.shadow_evals = probe->evals();
    for (size_t i = honest; i < n; ++i) sent.set_row(i, forged);
  }

  // One aggregate per round at the round's (n', f_e); the rule for each
  // distinct pair is built once, like the round engine's per-(n', f) cache.
  std::map<std::pair<size_t, size_t>, uint64_t> shapes;
  for (size_t t = 0; t < rounds; ++t) ++shapes[{run.round_rows[t], run.round_f[t]}];
  dpbyz::Vector aggregate(d, 0.0);
  for (const auto& [shape, calls] : shapes) {
    const auto [rows, f] = shape;
    std::unique_ptr<dpbyz::Aggregator> gar;
    try {
      gar = dpbyz::make_round_aggregator(config, rows, f);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay: no rule at (n'=%zu, f=%zu): %s\n", rows, f, e.what());
      continue;
    }
    const size_t round_byz = std::min(byz, rows - 1);
    GradientBatch round(rows, d);
    for (size_t i = 0; i < rows - round_byz; ++i) round.set_row(i, sent.row(i % honest));
    for (size_t i = rows - round_byz; i < rows; ++i) round.set_row(i, sent.row(n - 1));
    dpbyz::AggregatorWorkspace ws;
    {
      trace::Span span("aggregation.aggregate", calls);
      for (uint64_t c = 0; c < calls; ++c) {
        const auto out = gar->aggregate(round, ws);
        if (c == 0) std::copy(out.begin(), out.end(), aggregate.begin());
      }
    }
    counts.aggregate_calls += calls;
    counts.pair_flops += static_cast<double>(calls) * static_cast<double>(rows) *
                         static_cast<double>(rows - 1) / 2.0 * static_cast<double>(d);
  }

  dpbyz::SgdOptimizer optimizer(d, dpbyz::constant_lr(config.learning_rate), config.momentum);
  dpbyz::Vector w = w0;
  {
    trace::Span span("models.apply", rounds);
    for (size_t t = 1; t <= rounds; ++t) optimizer.step(w, aggregate, t);
  }
  return counts;
}

}  // namespace perfbench
