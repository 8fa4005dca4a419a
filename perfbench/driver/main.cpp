// perfbench_driver — runs one benchmark workload and writes its raw
// measurements as JSON (perfbench/run.py turns them into metrics).
//
//   perfbench_driver --workload paper|wide|campaign --seed N --seconds S
//                    --trace 0|1 --out raw.json [--spans spans.csv]
//
// Run from an empty working directory: the figure driver writes
// bench_out/ and the campaign and checkpoint files land there too.
//
// Untraced (--trace 0): set the workload up several times (setup_s), run
// one warm-up job, then repeat the job closed-loop, one at a time, until S
// seconds have passed (at least twice), recording wall-clock and CPU per
// timed job, and a digest of the outputs, the final accuracy and the
// failed runs of every job.
//
// Traced (--trace 1): untraced jobs for half of S, then one traced job —
// the same runs with a span-recording Model wrapper, and for the campaign
// the runner's per-cell steps called one by one — followed by replays of
// the layers the trainer builds internally (replay.hpp).  Spans are
// written to --spans at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "math/kernels.hpp"
#include "models/linear_model.hpp"
#include "privacy/gradient_inversion.hpp"
#include "privacy/membership_inference.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "utils/parallel.hpp"

namespace fs = std::filesystem;
using dpbyz::ExperimentConfig;
using dpbyz::RunResult;

namespace perfbench {
namespace {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// FNV-1a 64 over raw bytes, chained.
uint64_t fnv1a(const void* data, size_t size, uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

uint64_t digest_params(const std::vector<const RunResult*>& runs) {
  uint64_t h = 1469598103934665603ull;
  for (const RunResult* r : runs)
    h = fnv1a(r->final_parameters.data(), r->final_parameters.size() * sizeof(double), h);
  return h;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool finite_run(const RunResult& r) {
  if (!std::isfinite(r.final_accuracy)) return false;
  return std::all_of(r.final_parameters.begin(), r.final_parameters.end(),
                     [](double v) { return std::isfinite(v); });
}

// ---------------------------------------------------------------------------
// Span-recording Model wrapper: Trainer takes its Model by reference, so
// the gradient, loss and evaluation calls of a real run pass through here.
class TracedModel final : public dpbyz::Model {
 public:
  explicit TracedModel(const dpbyz::Model& inner) : inner_(inner) {}
  size_t dim() const override { return inner_.dim(); }
  void batch_gradient_into(const dpbyz::Vector& w, const dpbyz::Dataset& data,
                           std::span<const size_t> batch,
                           std::span<double> out) const override {
    trace::Span span("models.grad");
    inner_.batch_gradient_into(w, data, batch, out);
  }
  double batch_loss(const dpbyz::Vector& w, const dpbyz::Dataset& data,
                    std::span<const size_t> batch) const override {
    trace::Span span("models.loss");
    return inner_.batch_loss(w, data, batch);
  }
  double accuracy(const dpbyz::Vector& w, const dpbyz::Dataset& data) const override {
    trace::Span span("models.eval");
    return inner_.accuracy(w, data);
  }
  dpbyz::Vector initial_parameters() const override { return inner_.initial_parameters(); }

 private:
  const dpbyz::Model& inner_;
};

// ---------------------------------------------------------------------------
/// What one job produced.
struct JobOutput {
  uint64_t digest = 0;
  double final_acc = 0.0;
  size_t attempted = 0;  ///< runs (paper, wide) or admissible cells (campaign)
  size_t failed = 0;
  std::vector<std::string> check_failures;
};

/// One training run of a traced job, with what the replay needs.
struct TracedRun {
  uint32_t id = 0;
  ExperimentConfig config;
  RunResult result;
  const dpbyz::Model* model = nullptr;  ///< the unwrapped model
  const dpbyz::Dataset* train = nullptr;
};

struct TracedJob {
  JobOutput out;
  std::vector<TracedRun> runs;
  std::vector<std::pair<std::string, double>> extra;  ///< workload-specific values
};

/// Runs `config` under a run span with the traced model.
RunResult traced_trainer_run(uint32_t id, const ExperimentConfig& config,
                             const dpbyz::Model& model, const dpbyz::Dataset& train,
                             const dpbyz::Dataset& test) {
  const TracedModel traced(model);
  trace::Span run_span("core.run");
  const trace::RunScope scope(id, run_span.id(),
                             config.pipeline_depth > 0 || config.threads > 1);
  return dpbyz::Trainer(config, traced, train, test).run();
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs the job needs (one set-up; timed by the caller).
  virtual void setup(uint64_t seed) = 0;
  virtual JobOutput job() = 0;
  virtual TracedJob traced_job() = 0;
  /// Layer work outside the traced job that is measured after it
  /// (checkpoint or manifest writes); default none.
  virtual void measure_io(TracedJob&) {}
  /// Set-ups per benchmark run (each timed; the median is reported).
  virtual size_t setups() const { return 15; }
};

// --- paper: the Figure-2 job as bench::run_figure runs it ------------------
class PaperWorkload final : public Workload {
 public:
  void setup(uint64_t) override {
    // run_figure builds PhishingExperiment(42) once per process; this is
    // the same construction, timed on its own.
    exp_ = std::make_unique<dpbyz::PhishingExperiment>(42);
    for (const auto& [label, config] : lines())
      dpbyz::Trainer(config.with_seed(1), exp_->model(), exp_->train(), exp_->test());
  }

  JobOutput job() override {
    dpbyz::bench::FigureSpec spec;
    spec.name = "fig2_batch50";
    spec.batch_size = 50;
    const std::vector<dpbyz::bench::FigureLine> lines = dpbyz::bench::run_figure(spec);
    std::vector<std::pair<std::string, std::vector<RunResult>>> results;
    for (const auto& line : lines) results.emplace_back(line.label, line.runs);
    return summarize(results);
  }

  TracedJob traced_job() override {
    TracedJob job;
    std::vector<std::pair<std::string, std::vector<RunResult>>> results;
    uint32_t id = 0;
    for (const auto& [label, config] : lines()) {
      results.emplace_back(label, std::vector<RunResult>{});
      for (uint64_t s = 1; s <= kSeeds; ++s) {
        const ExperimentConfig c = config.with_seed(s);
        RunResult r = traced_trainer_run(++id, c, exp_->model(), exp_->train(), exp_->test());
        results.back().second.push_back(r);
        job.runs.push_back({id, c, std::move(r), &exp_->model(), &exp_->train()});
      }
    }
    job.out = summarize(results);
    return job;
  }

 private:
  static constexpr uint64_t kSeeds = 5;

  /// run_figure's six configurations (FigureSpec defaults, b = 50).
  static std::vector<std::pair<std::string, ExperimentConfig>> lines() {
    ExperimentConfig base;
    base.batch_size = 50;
    base.steps = 1000;
    const double eps = 0.2;
    return {{"no-dp / no-attack", base},
            {"no-dp / little", base.with_attack("little")},
            {"no-dp / empire", base.with_attack("empire")},
            {"dp / no-attack", base.with_dp(eps)},
            {"dp / little", base.with_dp(eps).with_attack("little")},
            {"dp / empire", base.with_dp(eps).with_attack("empire")}};
  }

  static double mean_acc(const std::vector<RunResult>& runs) {
    double s = 0.0;
    for (const auto& r : runs) s += r.final_accuracy;
    return s / static_cast<double>(runs.size());
  }

  static JobOutput summarize(
      const std::vector<std::pair<std::string, std::vector<RunResult>>>& lines) {
    JobOutput out;
    std::vector<const RunResult*> all;
    double acc = 0.0;
    for (const auto& [label, runs] : lines)
      for (const auto& r : runs) {
        all.push_back(&r);
        acc += r.final_accuracy;
        ++out.attempted;
        if (!finite_run(r)) ++out.failed;
      }
    out.digest = digest_params(all);
    out.final_acc = acc / static_cast<double>(all.size());
    if (lines.size() != 6 || out.attempted != 6 * kSeeds) {
      out.check_failures.push_back("paper: expected 6 lines x 5 seeds");
      return out;
    }
    // The paper's antagonism: with DP, each attack ends below the clean
    // baseline.
    const double clean = mean_acc(lines[0].second);
    for (const auto& [label, runs] : lines)
      if (label.rfind("dp / ", 0) == 0 && label != "dp / no-attack" &&
          !(mean_acc(runs) < clean))
        out.check_failures.push_back("paper: '" + label + "' does not end below the clean "
                                     "baseline");
    return out;
  }

  std::unique_ptr<dpbyz::PhishingExperiment> exp_;
};

// --- wide: one run at n = 50, d = 1e4 on the k = 1 ring ---------------------
class WideWorkload final : public Workload {
 public:
  void setup(uint64_t seed) override {
    data_.reset();  // keep one dataset alive at a time
    dpbyz::BlobsConfig bc;
    bc.num_samples = 2000;
    bc.num_features = 10000;
    data_ = std::make_unique<dpbyz::Dataset>(dpbyz::make_blobs(bc, seed));
    model_ = std::make_unique<dpbyz::LinearModel>(bc.num_features,
                                                  dpbyz::LinearLoss::kMseOnSigmoid);
    config_ = ExperimentConfig{};
    config_.num_workers = 50;
    config_.num_byzantine = 2;
    config_.batch_size = 10;
    config_.steps = 100;
    config_.gar = "mda";
    config_.dp_enabled = true;
    config_.mechanism = "gaussian";
    config_.epsilon = 0.2;
    config_.attack_enabled = true;
    config_.attack = "little";
    config_.pipeline_depth = 1;
    config_.threads = 2;
    config_.checkpoint_path = kCheckpoint;
    config_.checkpoint_every = 50;
    config_.checkpoint_resume = false;
    config_.seed = 1;
    dpbyz::Trainer(config_, *model_, *data_, *data_);
  }

  size_t setups() const override { return 3; }

  JobOutput job() override {
    std::remove(kCheckpoint);
    JobOutput out;
    out.attempted = 1;
    try {
      const RunResult r = dpbyz::Trainer(config_, *model_, *data_, *data_).run();
      finish(out, r);
    } catch (const std::exception& e) {
      out.failed = 1;
      out.check_failures.push_back(std::string("wide: run threw: ") + e.what());
    }
    return out;
  }

  TracedJob traced_job() override {
    std::remove(kCheckpoint);
    TracedJob job;
    job.out.attempted = 1;
    RunResult r = traced_trainer_run(1, config_, *model_, *data_, *data_);
    finish(job.out, r);
    job.runs.push_back({1, config_, std::move(r), model_.get(), data_.get()});
    return job;
  }

  // The trainer writes its checkpoints internally: time save_checkpoint
  // on the run's last real checkpoint, as many times as the run wrote.
  void measure_io(TracedJob& job) override {
    const auto ckpt = dpbyz::load_checkpoint(kCheckpoint);
    if (!ckpt) throw std::runtime_error("wide: the run wrote no checkpoint");
    const size_t writes = config_.steps / config_.checkpoint_every;
    const std::string path = std::string(kCheckpoint) + ".replay";
    for (size_t i = 0; i < writes; ++i) {
      trace::Span span("core.checkpoint");
      dpbyz::save_checkpoint(path, *ckpt);
    }
    job.extra.emplace_back("checkpoint_bytes", static_cast<double>(fs::file_size(path)));
    fs::remove(path);
  }

 private:
  static constexpr const char* kCheckpoint = "wide.ckpt";

  static void finish(JobOutput& out, const RunResult& r) {
    out.digest = digest_params({&r});
    out.final_acc = r.final_accuracy;
    if (!finite_run(r)) out.failed = 1;
  }

  std::unique_ptr<dpbyz::Dataset> data_;
  std::unique_ptr<dpbyz::LinearModel> model_;
  ExperimentConfig config_;
};

// --- campaign: one run_campaign call over a 128-cell grid -------------------
class CampaignWorkload final : public Workload {
 public:
  void setup(uint64_t seed) override {
    spec_ = dpbyz::campaign::GridSpec{};
    spec_.base.num_workers = 15;
    spec_.base.num_byzantine = 2;
    spec_.base.steps = 300;
    spec_.gars = {"mda", "median"};
    spec_.attacks = {"little", "adaptive_alie"};
    spec_.dp_eps = {0.0, 0.2};
    spec_.topologies = {"flat", "tree:1x3"};
    spec_.channels = {"off", "lossy:0.05x0.01x0.1"};
    spec_.churn = {"off", "epoch:50x0.7x0.1"};
    spec_.fast_math = {0, 1};
    spec_.seeds = 2;
    spec_.data_seed = seed;
    // run_campaign's own set-up: the shared experiment and the expansion.
    exp_ = std::make_unique<dpbyz::PhishingExperiment>(seed);
    cells_ = dpbyz::campaign::expand_grid(spec_);
  }

  JobOutput job() override {
    fs::remove_all(kOut);
    dpbyz::campaign::CampaignOptions options;
    options.out_dir = kOut;
    options.threads = kThreads;
    const auto report = dpbyz::campaign::run_campaign(spec_, options);
    JobOutput out = summarize(report.cells);
    if (!report.complete) out.check_failures.push_back("campaign: report not complete");
    const std::string bytes = read_file(report.csv_path);
    out.digest = fnv1a(bytes.data(), bytes.size());
    skipped_ = report.skipped;
    return out;
  }

  // run_campaign's per-cell steps called one by one (its two passes,
  // run_seeds_parallel's per-seed runs, the privacy attacks on the seed-1
  // model, a manifest save per completed cell), with the traced model.
  TracedJob traced_job() override {
    fs::remove_all(kTracedOut);
    fs::create_directories(kTracedOut);
    TracedJob job;
    std::vector<const dpbyz::campaign::GridCell*> scalar, fast;
    for (const auto& cell : cells_)
      if (cell.admissible()) (cell.fast_math ? fast : scalar).push_back(&cell);

    std::mutex mutex;  // guards manifest, artifacts, job.runs
    dpbyz::campaign::Manifest manifest;
    manifest.signature = spec_.signature();
    std::map<size_t, dpbyz::campaign::CellArtifact> artifacts;
    const std::string manifest_path = std::string(kTracedOut) + "/manifest.csv";
    const auto run_pass = [&](const std::vector<const dpbyz::campaign::GridCell*>& pass) {
      dpbyz::parallel_map(
          pass.size(),
          [&](size_t i) {
            const auto& cell = *pass[i];
            dpbyz::campaign::CellArtifact a = run_cell(cell, job, mutex);
            std::lock_guard<std::mutex> lock(mutex);
            manifest.completed[a.cell] = a;
            artifacts[a.cell] = std::move(a);
            trace::Span span("campaign.manifest_write");
            dpbyz::campaign::save_manifest(manifest_path, manifest);
            return 0;
          },
          kThreads);
    };
    run_pass(scalar);
    run_pass(fast);

    std::vector<dpbyz::campaign::CellArtifact> table;
    for (const auto& cell : cells_) {
      auto it = artifacts.find(cell.index);
      table.push_back(it != artifacts.end() ? it->second : skipped_artifact(cell));
    }
    job.out = summarize(table);
    const std::string csv = std::string(kTracedOut) + "/campaign.csv";
    dpbyz::campaign::write_csv(csv, table);
    const std::string bytes = read_file(csv);
    job.out.digest = fnv1a(bytes.data(), bytes.size());
    job.extra.emplace_back("manifest_bytes",
                           static_cast<double>(fs::file_size(manifest_path)));
    job.extra.emplace_back("cells_skipped", static_cast<double>(skipped_));
    std::sort(job.runs.begin(), job.runs.end(),
              [](const TracedRun& a, const TracedRun& b) { return a.id < b.id; });
    return job;
  }

 private:
  static constexpr const char* kOut = "campaign";
  static constexpr const char* kTracedOut = "campaign_traced";
  static constexpr size_t kThreads = 4;

  dpbyz::campaign::CellArtifact skipped_artifact(const dpbyz::campaign::GridCell& cell) const {
    dpbyz::campaign::CellArtifact a;
    a.cell = cell.index;
    a.id = cell.id;
    a.gar = cell.gar;
    a.attack = cell.attack;
    a.eps = cell.eps;
    a.participation = cell.participation;
    a.topology = cell.topology;
    a.channel = cell.channel;
    a.churn = cell.churn;
    a.prune = cell.prune;
    a.fast_math = cell.fast_math;
    a.seeds = spec_.seeds;
    a.skip_reason = cell.skip_reason;
    const double nan = std::nan("");
    a.final_acc_mean = a.final_acc_std = a.final_loss_mean = a.final_loss_std = nan;
    a.min_loss_mean = a.mi_auc = a.inv_rel_error = a.inv_label_acc = nan;
    return a;
  }

  dpbyz::campaign::CellArtifact run_cell(const dpbyz::campaign::GridCell& cell, TracedJob& job,
                                         std::mutex& mutex) {
    dpbyz::campaign::CellArtifact a = skipped_artifact(cell);
    trace::Span cell_span("campaign.cell");
    try {
      std::vector<RunResult> runs;
      for (uint64_t s = 1; s <= spec_.seeds; ++s) {
        const ExperimentConfig c = cell.config.with_seed(s);
        const auto id = static_cast<uint32_t>(cell.index * spec_.seeds + s);
        runs.push_back(traced_trainer_run(id, c, exp_->model(), exp_->train(), exp_->test()));
        std::lock_guard<std::mutex> lock(mutex);
        job.runs.push_back({id, c, runs.back(), &exp_->model(), &exp_->train()});
      }
      const auto acc = dpbyz::summarize_final_accuracy(runs);
      const auto loss = dpbyz::summarize_final_loss(runs);
      a.final_acc_mean = acc.mean;
      a.final_acc_std = acc.stddev;
      a.final_loss_mean = loss.mean;
      a.final_loss_std = loss.stddev;
      double min_loss = 0.0;
      for (const auto& r : runs) min_loss += r.min_train_loss;
      a.min_loss_mean = min_loss / static_cast<double>(runs.size());
      const dpbyz::Vector& w = runs.front().final_parameters;
      const size_t samples = dpbyz::campaign::CampaignOptions{}.privacy_samples;
      {
        trace::Span span("privacy.mi");
        a.mi_auc = dpbyz::privacy::membership_inference(exp_->model(), w, exp_->train(),
                                                        exp_->test(), samples)
                       .auc;
      }
      {
        trace::Span span("privacy.inversion");
        const double stddev =
            dpbyz::make_mechanism(cell.config, exp_->model().dim())->noise_stddev();
        const auto inv = dpbyz::privacy::attack_linear_model(exp_->train(), w, stddev,
                                                             samples, /*seed=*/1);
        a.inv_rel_error = inv.mean_relative_error;
        a.inv_label_acc = inv.label_accuracy;
      }
    } catch (const std::exception& e) {
      a.skip_reason = dpbyz::campaign::sanitize_field(std::string("error: ") + e.what());
    }
    return a;
  }

  JobOutput summarize(const std::vector<dpbyz::campaign::CellArtifact>& table) const {
    JobOutput out;
    double acc = 0.0;
    size_t ran = 0;
    std::map<size_t, const dpbyz::campaign::GridCell*> by_index;
    for (const auto& cell : cells_) by_index[cell.index] = &cell;
    for (const auto& a : table) {
      const auto it = by_index.find(a.cell);
      if (it == by_index.end() || !it->second->admissible()) continue;
      ++out.attempted;
      if (!a.skip_reason.empty() || !std::isfinite(a.final_acc_mean)) {
        ++out.failed;
        continue;
      }
      acc += a.final_acc_mean;
      ++ran;
    }
    out.final_acc = ran ? acc / static_cast<double>(ran) : 0.0;
    if (table.size() != cells_.size())
      out.check_failures.push_back("campaign: artifact table does not cover the grid");
    return out;
  }

  dpbyz::campaign::GridSpec spec_;
  std::unique_ptr<dpbyz::PhishingExperiment> exp_;
  std::vector<dpbyz::campaign::GridCell> cells_;
  size_t skipped_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper") return std::make_unique<PaperWorkload>();
  if (name == "wide") return std::make_unique<WideWorkload>();
  if (name == "campaign") return std::make_unique<CampaignWorkload>();
  throw std::invalid_argument("unknown workload '" + name + "' (paper|wide|campaign)");
}

// ---------------------------------------------------------------------------
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_num(v[i]);
  return out + "]";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload, out, spans = "spans.csv";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in --name value pairs");
  if (a.workload.empty() || a.out.empty())
    throw std::invalid_argument("--workload and --out are required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  auto workload = make_workload(args.workload);

  std::vector<double> setup_s;
  for (size_t i = 0; i < workload->setups(); ++i) {
    const double t0 = now_s();
    workload->setup(args.seed);
    setup_s.push_back(now_s() - t0);
  }

  // Untraced jobs, closed loop, after one warm-up job whose outputs are
  // checked but whose times are not kept.  A traced run spends half its
  // time here.
  std::vector<double> job_s, job_cpu_s, final_acc;
  std::vector<double> failed, attempted;
  std::vector<std::string> digests, checks;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const size_t min_jobs = args.trace ? 1 : 2;
  bool warm = false;
  double start = now_s();
  while (job_s.size() < min_jobs || now_s() - start < budget) {
    const double c0 = cpu_s(), t0 = now_s();
    JobOutput out;
    try {
      out = workload->job();
    } catch (const std::exception& e) {
      out.failed = out.attempted = 1;
      out.check_failures.push_back(std::string("job threw: ") + e.what());
    }
    const double wall = now_s() - t0, cpu = cpu_s() - c0;
    if (warm) {
      job_s.push_back(wall);
      job_cpu_s.push_back(cpu);
    } else {
      warm = true;
      start = now_s();
    }
    final_acc.push_back(out.final_acc);
    failed.push_back(static_cast<double>(out.failed));
    attempted.push_back(static_cast<double>(out.attempted));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(out.digest));
    digests.push_back(hex);
    for (auto& c : out.check_failures) checks.push_back(std::move(c));
  }

  std::string traced;
  if (args.trace) {
    trace::enable(true);
    const double t0 = now_s();
    TracedJob job = workload->traced_job();
    const double traced_s = now_s() - t0;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(job.out.digest));
    if (hex != digests.front())
      checks.push_back("traced job outputs differ from the untraced job's (" +
                       std::string(hex) + " vs " + digests.front() + ")");
    for (auto& c : job.out.check_failures) checks.push_back(std::move(c));

    workload->measure_io(job);
    // Replays of the internally built layers, per run, at its counts.
    std::map<uint32_t, uint64_t> grad_calls;
    for (const auto& s : trace::snapshot())
      if (std::strcmp(s.name, "models.grad") == 0) grad_calls[s.run] += s.count;
    ReplayCounts total;
    const double r0 = now_s();
    for (const TracedRun& r : job.runs) {
      trace::Span span("replay");
      const trace::RunScope scope(r.id, span.id(), false);
      const ReplayCounts c = replay_run(r.config, r.result, *r.model, *r.train, grad_calls[r.id]);
      total.forge_calls += c.forge_calls;
      total.shadow_evals += c.shadow_evals;
      total.aggregate_calls += c.aggregate_calls;
      total.pair_flops += c.pair_flops;
    }
    const double replay_s = now_s() - r0;
    trace::enable(false);
    trace::write_csv(args.spans, trace::snapshot());

    std::string runs = "[";
    for (size_t i = 0; i < job.runs.size(); ++i) {
      const TracedRun& r = job.runs[i];
      const auto& c = r.config;
      const auto& p = r.result.phase;
      const auto& ch = r.result.channel;
      const size_t honest = c.attack_enabled ? c.num_workers - c.num_byzantine : c.num_workers;
      const bool fixed_roster = c.churn == "off" && c.participation == "full";
      runs += std::string(i ? ",\n    " : "\n    ") + "{\"run\": " + std::to_string(r.id) +
              ", \"honest\": " + std::to_string(honest) +
              ", \"fixed_roster\": " + (fixed_roster ? "true" : "false") +
              ", \"batch\": " + std::to_string(c.batch_size) +
              ", \"dim\": " + std::to_string(r.model->dim()) +
              ", \"rounds\": " + std::to_string(r.result.round_rows.size()) +
              ", \"fill_wait_s\": " + json_num(p.fill) +
              ", \"fill_busy_s\": " + json_num(p.fill_busy) +
              ", \"aggregate_s\": " + json_num(p.aggregate) +
              ", \"apply_s\": " + json_num(p.apply) +
              ", \"bytes_sent\": " + std::to_string(ch.bytes_sent) +
              ", \"retransmit_frames\": " + std::to_string(ch.retransmit_frames) +
              ", \"rows_substituted\": " + std::to_string(ch.rows_substituted) + "}";
    }
    runs += "]";
    traced = ",\n  \"traced\": {\"job_s\": " + json_num(traced_s) +
             ", \"replay_s\": " + json_num(replay_s) +
             ", \"spans\": " + json_str(args.spans) +
             ", \"forge_calls\": " + std::to_string(total.forge_calls) +
             ", \"shadow_evals\": " + std::to_string(total.shadow_evals) +
             ", \"aggregate_calls\": " + std::to_string(total.aggregate_calls) +
             ", \"pair_flops\": " + json_num(total.pair_flops);
    for (const auto& [k, v] : job.extra) traced += ", " + json_str(k) + ": " + json_num(v);
    traced += ",\n  \"runs\": " + runs + "}";
  }

  std::string json = "{\n  \"workload\": " + json_str(args.workload) +
                     ",\n  \"seed\": " + std::to_string(args.seed) +
                     ",\n  \"host\": {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"isa_backend\": " + json_str(dpbyz::kernels::fast_backend()) +
                     ", \"compiler\": " + json_str(compiler()) +
                     ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
                     ", \"fast_math_option\": " +
                     (PERFBENCH_FAST_MATH_OPTION ? "true" : "false") + "}" +
                     ",\n  \"setup_s\": " + json_list(setup_s) +
                     ",\n  \"job_s\": " + json_list(job_s) +
                     ",\n  \"cpu_s\": " + json_list(job_cpu_s) +
                     ",\n  \"peak_rss_mb\": " + json_num(peak_rss_mb()) +
                     ",\n  \"final_acc\": " + json_list(final_acc) +
                     ",\n  \"attempted\": " + json_list(attempted) +
                     ",\n  \"failed\": " + json_list(failed) + ",\n  \"digests\": [";
  for (size_t i = 0; i < digests.size(); ++i) json += (i ? ", " : "") + json_str(digests[i]);
  json += "],\n  \"check_failures\": [";
  for (size_t i = 0; i < checks.size(); ++i) json += (i ? ", " : "") + json_str(checks[i]);
  json += "]" + traced + "\n}\n";

  FILE* out = std::fopen(args.out.c_str(), "w");
  if (!out || std::fputs(json.c_str(), out) < 0 || std::fclose(out) != 0) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
