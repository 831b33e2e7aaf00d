// store_ingest: the only path through data/bundle and datastore. Bundle
// files of wide JAG samples are written in set-up; each segment then builds
// a Preloaded datastore::DataStore over 4 in-process ranks, preloads it
// (bundle reads) and serves four shuffled epochs of 128-id fetches per rank.
// Every fetch must return exactly the requested ids; payloads must be
// bit-equal to the generated samples on every fetch of the warm-up segment
// and on each rank's final fetch of every later segment (comparing all of
// them inside the timed loop would cost a tenth of a fetch).
#include <algorithm>
#include <cstring>
#include <numeric>

#include <unistd.h>

#include "comm/communicator.hpp"
#include "core/gan_trainer.hpp"
#include "datastore/data_store.hpp"
#include "ledger.hpp"
#include "telemetry/telemetry.hpp"
#include "util/compute_pool.hpp"
#include "util/rng.hpp"

namespace ledger {

namespace {

using namespace ltfb;
namespace fs = std::filesystem;

constexpr int kRanks = 4;
constexpr std::size_t kSamples = 4096;
constexpr std::size_t kFiles = 16;
constexpr std::size_t kFetchIds = 128;
constexpr std::size_t kEpochs = 4;  // per segment, per rank
constexpr std::size_t kSteps = kEpochs * kSamples / kFetchIds;
constexpr int kSetupReps = 3;
constexpr std::uint64_t kReferenceModelSeed = 0x1ed9e5;

struct Inputs {
  data::Dataset dataset;
  std::vector<fs::path> bundles;
  /// plans[rank][step]: the ids that rank asks for at that step.
  std::vector<std::vector<std::vector<data::SampleId>>> plans;
};

Inputs make_inputs(std::uint64_t seed, const fs::path& dir) {
  jag::JagConfig jag_config;
  jag_config.image_size = 16;
  jag_config.num_views = 3;
  jag_config.num_channels = 4;
  Inputs in;
  in.dataset = data::generate_jag_dataset(jag::JagModel(jag_config), kSamples,
                                          util::derive_seed(seed, "ledger/jag"));
  data::normalize_dataset(in.dataset, data::fit_normalizers(in.dataset));
  fs::remove_all(dir);
  in.bundles = data::write_bundle_set(dir, in.dataset.schema(),
                                      in.dataset.samples(), kFiles);
  // Each step asks for kFetchIds / kFiles shuffled samples from every
  // bundle file (and every sample once per epoch), so no seed draws a plan
  // that piles its requests onto a few owners.
  constexpr std::size_t kPerFile = kSamples / kFiles;
  constexpr std::size_t kTake = kFetchIds / kFiles;
  in.plans.resize(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    util::Rng rng(util::derive_seed(seed, "ledger/fetch",
                                    static_cast<std::uint64_t>(r)));
    std::vector<std::vector<data::SampleId>> files(kFiles);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      for (std::size_t f = 0; f < kFiles; ++f) {
        files[f].resize(kPerFile);
        std::iota(files[f].begin(), files[f].end(), f * kPerFile);
        rng.shuffle(files[f]);
      }
      for (std::size_t b = 0; b < kPerFile; b += kTake) {
        std::vector<data::SampleId> ids;
        for (const auto& file : files) {
          ids.insert(ids.end(), file.begin() + static_cast<std::ptrdiff_t>(b),
                     file.begin() + static_cast<std::ptrdiff_t>(b + kTake));
        }
        rng.shuffle(ids);
        in.plans[static_cast<std::size_t>(r)].push_back(std::move(ids));
      }
    }
  }
  return in;
}

std::uint64_t fingerprint(const Inputs& in) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& s : in.dataset.samples()) {
    h = fnv1a(s.images.data(), s.images.size() * sizeof(float), h);
  }
  for (const auto& path : in.bundles) {
    const std::uintmax_t size = fs::file_size(path);
    h = fnv1a(&size, sizeof size, h);
  }
  for (const auto& rank : in.plans) {
    for (const auto& ids : rank) {
      h = fnv1a(ids.data(), ids.size() * sizeof(data::SampleId), h);
    }
  }
  return h;
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Per-rank accounting of one segment.
struct RankRun {
  double wall = 0, preload = 0, fetch = 0;
  std::vector<double> fetch_ms;
  std::size_t mismatches = 0;
  datastore::DataStoreStats stats;
  std::uint64_t comm_bytes = 0, comm_messages = 0;
  double recv_wait_s = 0;
  std::vector<data::Sample> last;  // final fetch, for the reference loss
};

struct Segment {
  double wall_s = 0.0;  // slowest rank's ingest time
  std::vector<RankRun> ranks;
};

Segment run_segment(const Inputs& in, const datastore::BundleCatalog& catalog,
                    bool traced, bool check_all_payloads) {
  Segment seg;
  seg.ranks.resize(kRanks);
  comm::World world(kRanks, comm::BackendKind::InProc);
  const auto errors = world.run_ranks([&](comm::Communicator& comm) {
    RankRun& run = seg.ranks[static_cast<std::size_t>(comm.rank())];
    const auto& plan = in.plans[static_cast<std::size_t>(comm.rank())];
    const RankCounts at_start =
        traced ? RankCounts::read(comm.rank()) : RankCounts{};
    const double t0 = now_s();
    datastore::DataStore store(comm, &catalog,
                               datastore::PopulateMode::Preloaded);
    {
      const Span span(run.preload, nullptr);
      store.preload();
    }
    for (std::size_t s = 0; s < plan.size(); ++s) {
      const double f0 = now_s();
      std::vector<data::Sample> got = store.fetch(plan[s]);
      const double f = now_s() - f0;
      run.fetch += f;
      run.fetch_ms.push_back(f * 1e3);
      const bool last = s + 1 == plan.size();
      bool ok = got.size() == plan[s].size();
      for (std::size_t i = 0; ok && i < got.size(); ++i) {
        ok = got[i].id == plan[s][i];
        if (ok && (check_all_payloads || last)) {
          const data::Sample& want = in.dataset.sample(plan[s][i]);
          ok = same_floats(got[i].input, want.input) &&
               same_floats(got[i].scalars, want.scalars) &&
               same_floats(got[i].images, want.images);
        }
      }
      if (!ok) ++run.mismatches;
      if (last) run.last = std::move(got);
    }
    run.wall = now_s() - t0;
    run.stats = store.stats();
    if (traced) {
      const RankCounts at_end = RankCounts::read(comm.rank());
      run.comm_bytes = at_end.comm_bytes - at_start.comm_bytes;
      run.comm_messages = at_end.comm_messages - at_start.comm_messages;
      run.recv_wait_s = at_end.recv_wait_s - at_start.recv_wait_s;
    }
  });
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const auto& run : seg.ranks) {
    seg.wall_s = std::max(seg.wall_s, run.wall);
  }
  return seg;
}

/// Forward+inverse loss of a fixed CycleGAN over every rank's final fetch:
/// deterministic at a seed, and moved by any payload corruption. The
/// model's seed is a constant so the loss varies across seeds only through
/// the data.
double reference_loss(const Inputs& in, const Segment& seg) {
  gan::CycleGanConfig config;
  config.image_width = in.dataset.schema().image_width;
  config.mixed_precision = false;
  gan::CycleGan model(config, kReferenceModelSeed);
  std::vector<data::Sample> samples;
  for (const auto& run : seg.ranks) {
    samples.insert(samples.end(), run.last.begin(), run.last.end());
  }
  const data::Dataset fetched(in.dataset.schema(), std::move(samples));
  std::vector<std::size_t> view(fetched.size());
  std::iota(view.begin(), view.end(), std::size_t{0});
  return core::evaluate_gan(model, fetched, view, kFetchIds).total();
}

void account(const Segment& seg, Result& result) {
  for (const auto& run : seg.ranks) {
    result.attempted += run.fetch_ms.size();
    result.failed += run.stats.faults;
    if (run.mismatches != 0) {
      result.fail(std::to_string(run.mismatches) +
                  " fetches returned wrong ids or payloads");
    }
  }
}

}  // namespace

Result run_store_workload(const Options& options) {
  util::ComputePool::instance().resize(1);
  const fs::path dir = options.work_dir / "store_ingest";

  Result result;
  Inputs in;
  const double setup_s = time_setup(
      kSetupReps, [&] { in = make_inputs(options.seed, dir); },
      [&] { return fingerprint(in); }, result);
  // Flush the bundle files now, so their write-back does not compete with
  // the timed fetches.
  ::sync();
  const datastore::BundleCatalog catalog(in.bundles);

  auto& registry = telemetry::Registry::instance();
  registry.set_enabled(false);
  const Segment warmup = run_segment(in, catalog, false, true);
  account(warmup, result);
  const double loss = reference_loss(in, warmup);

  std::vector<double> step_ms, throughput, rss_mb;
  double wall = 0.0, traced_wall = 0.0;
  std::size_t segments = 0;
  // Traced accumulators.
  double preload_max = 0, preload_min = 0, fetch = 0, recv_wait = 0;
  double coverage = 1.0;
  std::uint64_t bytes = 0, hits = 0, remote = 0, file_reads = 0,
                comm_bytes = 0, comm_messages = 0;

  const double t_end = now_s() + options.seconds;
  while (segments < 2 || now_s() < t_end) {
    reset_peak_rss();
    const Segment seg = run_segment(in, catalog, false, false);
    rss_mb.push_back(peak_rss_mb());
    account(seg, result);
    if (segments == 0 && reference_loss(in, seg) != loss) {
      result.fail("reference loss over fetched samples differs on repeat");
    }
    wall += seg.wall_s;
    throughput.push_back(kRanks * static_cast<double>(kSteps * kFetchIds) /
                         seg.wall_s);
    for (const auto& run : seg.ranks) {
      step_ms.insert(step_ms.end(), run.fetch_ms.begin(), run.fetch_ms.end());
    }
    if (options.trace) {
      registry.set_enabled(true);
      const Segment t = run_segment(in, catalog, true, false);
      registry.set_enabled(false);
      registry.clear_trace();
      account(t, result);
      traced_wall += t.wall_s;
      double lo = 1e300, hi = 0;
      for (const auto& run : t.ranks) {
        lo = std::min(lo, run.preload);
        hi = std::max(hi, run.preload);
        fetch += run.fetch;
        recv_wait += run.recv_wait_s;
        coverage = std::min(coverage, (run.preload + run.fetch) / run.wall);
        bytes += run.stats.bytes_exchanged;
        hits += run.stats.local_hits;
        remote += run.stats.remote_fetches;
        file_reads += run.stats.file_reads;
        comm_bytes += run.comm_bytes;
        comm_messages += run.comm_messages;
      }
      preload_max += hi;
      preload_min += lo;
    }
    ++segments;
  }

  auto& m = result.metrics;
  const double segs = static_cast<double>(segments);
  if (!options.trace) {
    m["samples_per_s"] = median(throughput);
    m["round_p50_ms"] = quantile(step_ms, 0.5);
    m["round_p90_ms"] = quantile(step_ms, 0.9);
    m["val_loss"] = loss;
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = median(rss_mb);
  } else {
    for (const auto& spec : per_layer_metrics()) m[spec.name] = 0.0;
    const double steps = segs * static_cast<double>(kSteps);
    m["comm.recv_wait_ms_per_step"] = recv_wait / (steps * kRanks) * 1e3;
    m["comm.bytes_per_round"] = static_cast<double>(comm_bytes) / steps;
    m["comm.messages_per_round"] = static_cast<double>(comm_messages) / steps;
    m["core.span_coverage"] = coverage;
    m["datastore.preload_ms_max"] = preload_max / segs * 1e3;
    m["datastore.preload_ms_min"] = preload_min / segs * 1e3;
    m["datastore.fetch_ms"] = fetch / (steps * kRanks) * 1e3;
    m["datastore.bytes_per_step"] = static_cast<double>(bytes) / steps;
    m["datastore.local_hit_ratio"] =
        static_cast<double>(hits) / static_cast<double>(hits + remote);
    m["datastore.file_reads"] = static_cast<double>(file_reads) / segs;
    m["telemetry.trace_overhead"] = traced_wall / wall - 1.0;
  }
  if (result.failed != 0) {
    result.fail("fault-free run reported " + std::to_string(result.failed) +
                " repaired fetch faults");
  }
  result.notes.push_back("round_samples " + std::to_string(step_ms.size()) +
                         " fetch steps over " + std::to_string(segments) +
                         " segments");
  result.notes.push_back(
      "error_rate " +
      std::to_string(static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted)) +
      " (faulted fetches / attempted)");
  fs::remove_all(dir);
  return result;
}

}  // namespace ledger
