// The three LTFB workloads. The untraced run times whole
// core::run_distributed_ltfb calls; the traced run replays the same round
// loop from public calls only, with a benchmark-side span around each call
// into a module, and must reproduce the untraced run's tournament history
// and validation loss bit for bit.
#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

#include "comm/communicator.hpp"
#include "comm/serializer.hpp"
#include "core/ltfb_comm.hpp"
#include "core/population_checkpoint.hpp"
#include "ledger.hpp"
#include "nn/parallel.hpp"
#include "perf/model_cost.hpp"
#include "telemetry/telemetry.hpp"
#include "util/compute_pool.hpp"
#include "util/rng.hpp"

namespace ledger {

namespace {

using namespace ltfb;
namespace fs = std::filesystem;

struct LtfbSpec {
  const char* name;
  int ranks;
  int ranks_per_trainer;
  comm::BackendKind backend;
  std::size_t pool_workers;
  std::size_t image_size;
  std::size_t num_channels;
  std::size_t dataset_size;
  std::size_t steps_per_round;
  std::size_t rounds_per_segment;
  bool checkpoint_every_round;
};

// Why each workload exists is recorded in README.md.
constexpr LtfbSpec kSpecs[] = {
    {"solo_narrow", 1, 1, comm::BackendKind::InProc, 4, 8, 1, 4096, 5, 10,
     false},
    {"dp_wide", 4, 2, comm::BackendKind::InProc, 1, 16, 4, 2048, 2, 4, false},
    {"tourney_socket", 4, 1, comm::BackendKind::Socket, 1, 8, 1, 4096, 5, 5,
     true},
};

constexpr std::size_t kBatchSize = 128;
constexpr std::uint64_t kModelSeed = 0x17fb;
constexpr int kSetupReps = 3;

const LtfbSpec& spec_for(const std::string& name) {
  for (const auto& spec : kSpecs) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown LTFB workload " + name);
}

struct Inputs {
  data::Dataset dataset;
  data::SplitIndices splits;
  core::DistributedLtfbConfig config;
};

/// Everything the program receives is generated here from the seed.
Inputs make_inputs(const LtfbSpec& spec, std::uint64_t seed,
                   const fs::path& checkpoint_dir) {
  jag::JagConfig jag_config;
  jag_config.image_size = spec.image_size;
  jag_config.num_views = 3;
  jag_config.num_channels = spec.num_channels;
  const jag::JagModel jag_model(jag_config);

  Inputs in;
  in.dataset = data::generate_jag_dataset(
      jag_model, spec.dataset_size, util::derive_seed(seed, "ledger/jag"));
  data::normalize_dataset(in.dataset, data::fit_normalizers(in.dataset));
  in.splits = data::split_dataset(spec.dataset_size, 0.8, 0.1,
                                  util::derive_seed(seed, "ledger/split"));

  auto& config = in.config;
  config.ranks_per_trainer = spec.ranks_per_trainer;
  config.batch_size = kBatchSize;
  // The model initialisation is part of the workload, not of its inputs:
  // a fixed seed keeps val_loss varying across seeds through the data only.
  config.seed = kModelSeed;
  config.ltfb.steps_per_round = spec.steps_per_round;
  config.ltfb.rounds = spec.rounds_per_segment;
  config.ltfb.pairing_seed = util::derive_seed(seed, "ledger/pairing");
  // Paper CycleGAN widths (the CycleGanConfig defaults), fp32.
  config.model.image_width = jag_config.image_features();
  config.model.mixed_precision = false;
  if (spec.checkpoint_every_round) {
    config.checkpoint_dir = checkpoint_dir.string();
    config.checkpoint_every = 1;
  }
  return in;
}

std::uint64_t fingerprint(const Inputs& in) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& s : in.dataset.samples()) {
    h = fnv1a(s.input.data(), s.input.size() * sizeof(float), h);
    h = fnv1a(s.scalars.data(), s.scalars.size() * sizeof(float), h);
    h = fnv1a(s.images.data(), s.images.size() * sizeof(float), h);
  }
  for (const auto* view :
       {&in.splits.train, &in.splits.tournament, &in.splits.validation}) {
    h = fnv1a(view->data(), view->size() * sizeof(std::size_t), h);
  }
  return h;
}

/// What one rank of one segment produced: the tournament history its
/// leader recorded and trainer's final validation loss.
struct RankOutcome {
  std::vector<core::RoundRecord> history;
  double val_loss = 0.0;
  bool aborted = false;
  std::size_t partner_failures = 0;
};

struct Segment {
  double wall_s = 0.0;
  std::vector<RankOutcome> ranks;
};

/// Runs `fn` on every rank of a fresh world; returns the wall time of the
/// ranks alone (building the transport is not timed).
double run_world(const LtfbSpec& spec,
                 const std::function<void(comm::Communicator&)>& fn) {
  comm::World world(spec.ranks, spec.backend);
  const double t0 = now_s();
  const auto errors = world.run_ranks(fn);
  const double wall = now_s() - t0;
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return wall;
}

/// One timed core::run_distributed_ltfb call on every rank.
Segment run_untraced(const LtfbSpec& spec, const Inputs& in) {
  Segment seg;
  seg.ranks.resize(static_cast<std::size_t>(spec.ranks));
  seg.wall_s = run_world(spec, [&](comm::Communicator& comm) {
    const core::DistributedLtfbOutcome out =
        core::run_distributed_ltfb(comm, in.dataset, in.splits, in.config);
    RankOutcome& mine = seg.ranks[static_cast<std::size_t>(comm.rank())];
    mine.history = out.history;
    mine.val_loss = out.final_validation_loss;
    mine.aborted = out.aborted;
    mine.partner_failures = out.partner_failures;
  });
  return seg;
}

// -- traced replay --------------------------------------------------------------

/// Per-rank accumulators of the traced replay. Times are seconds; each is
/// the summed duration of one benchmark-side span kind.
struct RankTrace {
  double batch = 0, step = 0, hook = 0, sync = 0, pairing = 0, exchange = 0,
         score = 0, swap = 0, shrink = 0, broadcast = 0, checkpoint = 0,
         round = 0, children = 0;
  double min_coverage = 1.0;
  std::uint64_t steps = 0, rounds = 0, tournaments = 0, adoptions = 0,
                shrinks = 0, broadcasts = 0, checkpoints = 0,
                checkpoint_bytes = 0;
  std::uint64_t gemm_calls = 0, pool_jobs = 0;
  double gemm_s = 0;
  std::vector<double> train_phase_s;  // per round
  std::uint64_t bucketers = 0, buckets = 0, bucket_bytes = 0;
  double overlap = 0;  // summed over bucketers
  double recv_wait_s = 0;
  std::uint64_t comm_bytes = 0, comm_messages = 0;
  RankOutcome outcome;

  /// Sums another replay's spans and counts into this one (per-round
  /// train times and the outcome stay per replay).
  void add(const RankTrace& b) {
    batch += b.batch, step += b.step, hook += b.hook, sync += b.sync;
    pairing += b.pairing, exchange += b.exchange, score += b.score;
    swap += b.swap, shrink += b.shrink, broadcast += b.broadcast;
    checkpoint += b.checkpoint, round += b.round, children += b.children;
    min_coverage = std::min(min_coverage, b.min_coverage);
    steps += b.steps, rounds += b.rounds, tournaments += b.tournaments;
    adoptions += b.adoptions, shrinks += b.shrinks;
    broadcasts += b.broadcasts, checkpoints += b.checkpoints;
    checkpoint_bytes += b.checkpoint_bytes;
    gemm_calls += b.gemm_calls, pool_jobs += b.pool_jobs, gemm_s += b.gemm_s;
    bucketers += b.bucketers, buckets += b.buckets;
    bucket_bytes += b.bucket_bytes, overlap += b.overlap;
    recv_wait_s += b.recv_wait_s;
    comm_bytes += b.comm_bytes, comm_messages += b.comm_messages;
  }
};

/// Rows [begin, end) of a batch: the data-parallel shard of one rank.
data::Batch slice_batch(const data::Batch& batch, std::size_t begin,
                        std::size_t end) {
  const std::size_t rows = end - begin;
  data::Batch shard;
  auto slice = [&](const tensor::Tensor& src, tensor::Tensor& dst) {
    const std::size_t width = src.cols();
    dst.resize({rows, width});
    std::copy_n(src.raw() + begin * width, rows * width, dst.raw());
  };
  slice(batch.inputs, shard.inputs);
  slice(batch.scalars, shard.scalars);
  slice(batch.images, shard.images);
  slice(batch.outputs, shard.outputs);
  shard.ids.assign(batch.ids.begin() + static_cast<std::ptrdiff_t>(begin),
                   batch.ids.begin() + static_cast<std::ptrdiff_t>(end));
  return shard;
}

/// The run_distributed_ltfb round loop (fault-aware mode, generator-only
/// exchange, forward+inverse tournament metric, no pretraining), rebuilt
/// from public calls with a span around each.
void replay_rank(comm::Communicator& world, const Inputs& in,
                 RankTrace& acc) {
  const auto& config = in.config;
  const int rpt = config.ranks_per_trainer;
  const int num_trainers = world.size() / rpt;
  const int trainer_id = world.rank() / rpt;
  comm::Communicator trainer_comm = world.split(trainer_id, world.rank());
  const bool leader = trainer_comm.rank() == 0;
  comm::Communicator leader_comm = world.split(leader ? 0 : 1, trainer_id);

  const auto train_view = data::partition_indices(
      in.splits.train, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));
  const auto tournament_view = data::partition_indices(
      in.splits.tournament, static_cast<std::size_t>(num_trainers),
      static_cast<std::size_t>(trainer_id));
  gan::CycleGan model(config.model,
                      util::derive_seed(config.seed, "model",
                                        static_cast<std::uint64_t>(trainer_id)));
  data::MiniBatchReader reader(
      in.dataset, train_view, config.batch_size,
      util::derive_seed(config.seed, "reader",
                        static_cast<std::uint64_t>(trainer_id)),
      /*drop_last=*/true);
  const std::size_t shard = config.batch_size / static_cast<std::size_t>(rpt);
  const std::size_t shard_begin =
      static_cast<std::size_t>(trainer_comm.rank()) * shard;
  const std::chrono::milliseconds exchange_deadline = config.comm_timeout;
  const std::chrono::milliseconds shrink_deadline = 4 * config.comm_timeout;

  auto local_score = [&] {
    return core::evaluate_gan(model, in.dataset, tournament_view,
                              config.batch_size)
        .total();
  };

  std::optional<nn::GradientBucketer> bucketer;
  if (rpt > 1) {
    bucketer.emplace(trainer_comm);
    model.set_backward_hook([&](nn::Weights& w) {
      const Span span(acc.hook, nullptr);
      bucketer->on_layer_backward(w);
    });
    model.set_gradient_sync([&](const std::vector<nn::Model*>& ms) {
      const Span span(acc.sync, nullptr);
      bucketer->finish(ms, exchange_deadline);
    });
  }

  const RankCounts at_start = RankCounts::read(world.rank());
  std::uint64_t steps_taken = 0, won = 0;
  for (std::size_t round = 0; round < config.ltfb.rounds; ++round) {
    const double round_t0 = now_s();
    const double children_t0 = acc.children;

    // Reading the registry is the benchmark's own work (and can wait on
    // another rank's snapshot), so its time is taken out of the round.
    double reads = 0.0;
    RankCounts before, after;
    {
      const Span span(reads, nullptr);
      before = RankCounts::read(world.rank());
    }
    const double train_t0 = now_s();
    for (std::size_t s = 0; s < config.ltfb.steps_per_round; ++s) {
      data::Batch mine;
      {
        const Span span(acc.batch, &acc.children);
        mine = slice_batch(reader.next(), shard_begin, shard_begin + shard);
      }
      {
        const Span span(acc.step, &acc.children);
        model.train_step(mine);
      }
      ++steps_taken;
    }
    acc.train_phase_s.push_back(now_s() - train_t0);
    {
      const Span span(reads, nullptr);
      after = RankCounts::read(world.rank());
    }
    acc.gemm_calls += after.gemm_calls - before.gemm_calls;
    acc.gemm_s += after.gemm_s - before.gemm_s;
    acc.pool_jobs += after.pool_jobs - before.pool_jobs;

    core::TrainerRoundStat stat;
    stat.trainer_id = trainer_id;
    if (leader) {
      std::vector<std::pair<int, int>> live;
      std::size_t partner_pos = 0;
      {
        const Span span(acc.pairing, &acc.children);
        for (int r = 0; r < leader_comm.size(); ++r) {
          live.emplace_back(leader_comm.world_rank_of(r) / rpt, r);
        }
        std::sort(live.begin(), live.end());
        std::size_t my_pos = live.size();
        for (std::size_t i = 0; i < live.size(); ++i) {
          if (live[i].first == trainer_id) my_pos = i;
        }
        partner_pos = live.size();
        for (const auto& [a, b] : core::tournament_pairs(
                 live.size(), config.ltfb.pairing_seed, round)) {
          if (static_cast<std::size_t>(a) == my_pos) {
            partner_pos = static_cast<std::size_t>(b);
          }
          if (static_cast<std::size_t>(b) == my_pos) {
            partner_pos = static_cast<std::size_t>(a);
          }
        }
      }
      if (partner_pos < live.size()) {
        ++acc.tournaments;
        stat.partner_id = live[partner_pos].first;
        std::vector<float> own;
        {
          const Span span(acc.swap, &acc.children);
          own = model.generator_weights();
        }
        std::vector<float> candidate;
        {
          const Span span(acc.exchange, &acc.children);
          candidate = comm::Deserializer::unpack_floats(leader_comm.sendrecv(
              live[partner_pos].second, static_cast<int>(round),
              comm::Serializer::pack_floats(own), exchange_deadline));
        }
        {
          const Span span(acc.score, &acc.children);
          stat.own_score = local_score();
        }
        {
          const Span span(acc.swap, &acc.children);
          model.load_generator_weights(candidate);
        }
        {
          const Span span(acc.score, &acc.children);
          stat.partner_score = local_score();
        }
        if (stat.partner_score < stat.own_score) {
          stat.adopted_partner = true;
          ++acc.adoptions;
        } else {
          const Span span(acc.swap, &acc.children);
          model.load_generator_weights(own);
          ++won;
        }
      }
      {
        const Span span(acc.shrink, &acc.children);
        leader_comm = leader_comm.shrink(shrink_deadline);
      }
      ++acc.shrinks;
      core::RoundRecord record;
      record.round = round;
      record.stats = {stat};
      acc.outcome.history.push_back(std::move(record));
    }

    if (rpt > 1) {
      const Span span(acc.broadcast, &acc.children);
      comm::Buffer payload =
          leader ? comm::Serializer::pack_floats(model.generator_weights())
                 : comm::Buffer{};
      trainer_comm.broadcast(0, payload);
      if (!leader) {
        model.load_generator_weights(
            comm::Deserializer::unpack_floats(payload));
      }
      ++acc.broadcasts;
    }

    if (leader && config.checkpoint_every > 0) {
      const Span span(acc.checkpoint, &acc.children);
      core::PopulationCheckpoint ckpt;
      ckpt.round = round + 1;
      ckpt.pairing_seed = config.ltfb.pairing_seed;
      core::TrainerSlot slot;
      slot.trainer.trainer_id = trainer_id;
      slot.trainer.learning_rate = model.learning_rate();
      slot.trainer.steps = steps_taken;
      slot.trainer.reader_epoch = reader.epoch();
      slot.trainer.reader_cursor = reader.cursor();
      slot.trainer.generator = model.generator_weights();
      slot.trainer.discriminator = model.discriminator_weights();
      slot.trainer.optimizer_state = model.optimizer_state();
      slot.tournaments_won = won;
      slot.adoptions = acc.adoptions;
      ckpt.trainers.push_back(std::move(slot));
      ckpt.history = acc.outcome.history;
      const fs::path path = fs::path(config.checkpoint_dir) /
                            ("replay_" + std::to_string(trainer_id) + ".pop");
      core::save_population_checkpoint(path, ckpt);
      acc.checkpoint_bytes += fs::file_size(path);
      ++acc.checkpoints;
    }

    const double wall = now_s() - round_t0 - reads;
    acc.round += wall;
    ++acc.rounds;
    acc.min_coverage =
        std::min(acc.min_coverage, (acc.children - children_t0) / wall);
  }
  acc.steps += steps_taken;

  // Final evaluation, as run_distributed_ltfb reports it: the leader's
  // loss, shipped to the trainer's ranks as a float when rpt > 1.
  double val_loss = 0.0;
  if (leader) {
    val_loss = core::evaluate_gan(model, in.dataset, in.splits.validation,
                                  config.batch_size)
                   .total();
  }
  if (rpt > 1) {
    float shipped = static_cast<float>(val_loss);
    trainer_comm.broadcast(0, std::span<float>(&shipped, 1));
    val_loss = shipped;
  }
  acc.outcome.val_loss = val_loss;

  if (bucketer) {
    ++acc.bucketers;
    acc.buckets += bucketer->buckets_completed();
    acc.bucket_bytes += bucketer->bytes_reduced();
    acc.overlap += bucketer->overlap_fraction();
  }
  const RankCounts at_end = RankCounts::read(world.rank());
  acc.recv_wait_s += at_end.recv_wait_s - at_start.recv_wait_s;
  acc.comm_bytes += at_end.comm_bytes - at_start.comm_bytes;
  acc.comm_messages += at_end.comm_messages - at_start.comm_messages;
}

bool same_history(const RankOutcome& a, const RankOutcome& b) {
  if (a.val_loss != b.val_loss) return false;
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    const auto& x = a.history[r].stats;
    const auto& y = b.history[r].stats;
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].trainer_id != y[i].trainer_id ||
          x[i].partner_id != y[i].partner_id ||
          x[i].own_score != y[i].own_score ||
          x[i].partner_score != y[i].partner_score ||
          x[i].adopted_partner != y[i].adopted_partner ||
          x[i].partner_failed != y[i].partner_failed) {
        return false;
      }
    }
  }
  return true;
}

void check_segment(const Segment& seg, const Segment& reference,
                   const char* what, Result& result) {
  for (std::size_t r = 0; r < seg.ranks.size(); ++r) {
    if (!same_history(seg.ranks[r], reference.ranks[r])) {
      result.fail(std::string(what) + ": rank " + std::to_string(r) +
                  " tournament history or val_loss differs");
      return;
    }
  }
}

/// Counts trainer-rounds attempted and the ones that failed (an aborted
/// trainer loses all its rounds; a degraded round lost its partner).
void count_attempts(const LtfbSpec& spec, const Segment& seg,
                    Result& result) {
  const auto trainers =
      static_cast<std::uint64_t>(spec.ranks / spec.ranks_per_trainer);
  result.attempted += trainers * spec.rounds_per_segment;
  for (int r = 0; r < spec.ranks; r += spec.ranks_per_trainer) {
    const RankOutcome& leader = seg.ranks[static_cast<std::size_t>(r)];
    result.failed += leader.aborted ? spec.rounds_per_segment
                                    : leader.partner_failures;
  }
}

Result untraced_run(const LtfbSpec& spec, const Options& options,
                    const Inputs& in, double setup_s) {
  Result result;
  const Segment reference = run_untraced(spec, in);  // warm-up
  count_attempts(spec, reference, result);

  std::vector<double> round_ms, throughput, rss_mb;
  const double trainers = spec.ranks / spec.ranks_per_trainer;
  const double samples_per_segment =
      trainers * static_cast<double>(spec.rounds_per_segment *
                                     spec.steps_per_round * kBatchSize);
  std::size_t segments = 0;
  const double t_end = now_s() + options.seconds;
  while (segments < 2 || now_s() < t_end) {
    reset_peak_rss();
    const Segment seg = run_untraced(spec, in);
    rss_mb.push_back(peak_rss_mb());
    check_segment(seg, reference, "repeat at the same seed", result);
    count_attempts(spec, seg, result);
    throughput.push_back(samples_per_segment / seg.wall_s);
    ++segments;
    for (const auto& rank : seg.ranks) {
      for (const auto& record : rank.history) {
        round_ms.push_back(record.wall_s * 1e3);
      }
    }
  }
  result.metrics["samples_per_s"] = median(throughput);
  result.metrics["round_p50_ms"] = quantile(round_ms, 0.5);
  result.metrics["round_p90_ms"] = quantile(round_ms, 0.9);
  result.metrics["val_loss"] = reference.ranks.front().val_loss;
  result.metrics["setup_s"] = setup_s;
  result.metrics["peak_rss_mb"] = median(rss_mb);
  result.notes.push_back("round_samples " + std::to_string(round_ms.size()) +
                         " over " + std::to_string(segments) + " segments");
  return result;
}

Result traced_run(const LtfbSpec& spec, const Options& options,
                  const Inputs& in) {
  Result result;
  auto& registry = telemetry::Registry::instance();
  const auto n = static_cast<std::size_t>(spec.ranks);
  RankTrace t;  // population totals over the measured replays
  double traced_wall = 0.0, untraced_wall = 0.0;
  std::size_t segments = 0;
  std::vector<double> rank_gap_ms;

  const double t_end = now_s() + options.seconds;
  while (segments < 2 || now_s() < t_end) {
    registry.set_enabled(false);
    const Segment reference = run_untraced(spec, in);
    count_attempts(spec, reference, result);

    registry.set_enabled(true);
    std::vector<RankTrace> seg(n);
    const double wall = run_world(spec, [&](comm::Communicator& comm) {
      replay_rank(comm, in, seg[static_cast<std::size_t>(comm.rank())]);
    });
    registry.set_enabled(false);
    registry.clear_trace();

    Segment replay;
    for (auto& rank : seg) replay.ranks.push_back(rank.outcome);
    check_segment(replay, reference, "traced replay vs untraced", result);
    if (segments > 0) {  // the first pair warms caches and the pool
      traced_wall += wall;
      untraced_wall += reference.wall_s;
      for (const auto& rank : seg) t.add(rank);
      for (std::size_t round = 0; round < spec.rounds_per_segment; ++round) {
        double lo = 1e300, hi = 0.0;
        for (const auto& rank : seg) {
          lo = std::min(lo, rank.train_phase_s[round]);
          hi = std::max(hi, rank.train_phase_s[round]);
        }
        rank_gap_ms.push_back((hi - lo) * 1e3);
      }
    }
    ++segments;
  }

  const auto per = [](double total, std::uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  const double ms = 1e3;
  const double measured_segments = static_cast<double>(segments - 1);
  const double population_rounds =
      measured_segments * static_cast<double>(spec.rounds_per_segment);
  const double shard_rows =
      static_cast<double>(kBatchSize / static_cast<std::size_t>(
                                           spec.ranks_per_trainer));
  const double flops_per_step =
      perf::analyze(in.config.model).train_flops_per_sample() * shard_rows;

  auto& m = result.metrics;
  m["data.batch_ms"] = per(t.batch, t.steps) * ms;
  m["gan.step_ms"] = per(t.step, t.steps) * ms;
  m["gan.step_self_ms"] = per(t.step - t.hook - t.sync, t.steps) * ms;
  m["gan.step_gflops"] =
      t.step > 0 ? flops_per_step * static_cast<double>(t.steps) / t.step / 1e9
                 : 0.0;
  m["tensor.gemm_calls_per_step"] = per(double(t.gemm_calls), t.steps);
  m["tensor.gemm_ms_per_step"] = per(t.gemm_s, t.steps) * ms;
  m["tensor.gemm_share"] = t.step > 0 ? t.gemm_s / t.step : 0.0;
  m["util.pool_jobs_per_step"] = per(double(t.pool_jobs), t.steps);
  m["nn.bucket_hook_ms"] = per(t.hook, t.steps) * ms;
  m["nn.allreduce_wait_ms"] = per(t.sync, t.steps) * ms;
  m["nn.allreduce_bytes_per_step"] = per(double(t.bucket_bytes), t.steps);
  m["nn.buckets_per_step"] = per(double(t.buckets), t.steps);
  m["nn.overlap_fraction"] = per(t.overlap, t.bucketers);
  m["comm.exchange_ms"] = per(t.exchange, t.tournaments) * ms;
  m["comm.shrink_ms"] = per(t.shrink, t.shrinks) * ms;
  m["comm.broadcast_ms"] = per(t.broadcast, t.broadcasts) * ms;
  m["comm.recv_wait_ms_per_step"] = per(t.recv_wait_s, t.steps) * ms;
  m["comm.bytes_per_round"] = double(t.comm_bytes) / population_rounds;
  m["comm.messages_per_round"] = double(t.comm_messages) / population_rounds;
  m["core.score_ms"] = per(t.score, t.tournaments) * ms;
  m["core.checkpoint_ms"] = per(t.checkpoint, t.checkpoints) * ms;
  m["core.checkpoint_bytes"] = per(double(t.checkpoint_bytes), t.checkpoints);
  m["core.round_self_ms"] = per(t.round - t.children, t.rounds) * ms;
  m["core.rank_gap_ms"] = rank_gap_ms.empty()
                              ? 0.0
                              : std::accumulate(rank_gap_ms.begin(),
                                                rank_gap_ms.end(), 0.0) /
                                    static_cast<double>(rank_gap_ms.size());
  m["core.adoption_ratio"] = per(double(t.adoptions), t.tournaments);
  m["core.span_coverage"] = t.min_coverage;
  for (const char* name :
       {"datastore.preload_ms_max", "datastore.preload_ms_min",
        "datastore.fetch_ms", "datastore.bytes_per_step",
        "datastore.local_hit_ratio", "datastore.file_reads"}) {
    m[name] = 0.0;
  }
  m["telemetry.trace_overhead"] = traced_wall / untraced_wall - 1.0;

  if (t.min_coverage < 0.9) {
    result.fail("child spans cover only " + std::to_string(t.min_coverage) +
                " of a round's wall time (need >= 0.90)");
  }
  result.notes.push_back("traced segments " +
                         std::to_string(segments - 1) + " (+1 warm-up), " +
                         std::to_string(t.steps) + " rank-steps, " +
                         std::to_string(t.rounds) + " rank-rounds");
  return result;
}

}  // namespace

bool is_ltfb_workload(const std::string& name) {
  return std::any_of(std::begin(kSpecs), std::end(kSpecs),
                     [&](const LtfbSpec& s) { return name == s.name; });
}

Result run_ltfb_workload(const Options& options) {
  const LtfbSpec& spec = spec_for(options.workload);
  util::ComputePool::instance().resize(spec.pool_workers);
  const fs::path checkpoint_dir = options.work_dir / spec.name;
  fs::create_directories(checkpoint_dir);

  Result setup_checks;
  Inputs in;
  const double setup_s = time_setup(
      kSetupReps,
      [&] { in = make_inputs(spec, options.seed, checkpoint_dir); },
      [&] { return fingerprint(in); }, setup_checks);

  Result result = options.trace ? traced_run(spec, options, in)
                                : untraced_run(spec, options, in, setup_s);
  for (const auto& error : setup_checks.errors) result.fail(error);
  if (result.failed != 0) {
    result.fail("fault-free run reported " + std::to_string(result.failed) +
                " failed trainer-rounds");
  }
  result.notes.push_back(
      "error_rate " +
      std::to_string(static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted)) +
      " (failed trainer-rounds / attempted)");
  fs::remove_all(checkpoint_dir);
  return result;
}

}  // namespace ledger
