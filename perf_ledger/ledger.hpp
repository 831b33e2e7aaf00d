// Shared plumbing of the LTFB perf ledger: run options, the result record
// every workload fills, the fixed metric catalogue, and the small timing and
// statistics helpers the workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace ledger {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (bundle files, checkpoints).
  std::filesystem::path work_dir;
};

/// One run's outcome. `metrics` maps catalogue names to values; the unit
/// comes from the catalogue, so a workload cannot misreport one.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Informational lines (sample counts, error_rate) printed with the
  /// metrics but not part of the JSON result.
  std::vector<std::string> notes;
  std::vector<std::string> errors;

  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload's untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by every workload's traced run (0 where a
/// layer is not on the workload's path).
const std::vector<MetricSpec>& per_layer_metrics();

Result run_ltfb_workload(const Options& options);
Result run_store_workload(const Options& options);
bool is_ltfb_workload(const std::string& name);

// -- helpers ----------------------------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the elapsed time of its scope to `slot` and, when given, to the
/// enclosing round's child-span total — the benchmark-side span.
class Span {
 public:
  Span(double& slot, double* children) : slot_(slot), children_(children) {}
  ~Span() {
    const double d = now_s() - start_;
    slot_ += d;
    if (children_ != nullptr) *children_ += d;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& slot_;
  double* children_;
  double start_ = now_s();
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set (VmHWM) since the last reset_peak_rss(), MiB.
double peak_rss_mb();
/// Restarts the VmHWM window (Linux clear_refs "5"); a no-op where the
/// kernel refuses, leaving the whole-process peak.
void reset_peak_rss();

/// Median of `reps` timed calls of `setup`; every call must leave the same
/// `fingerprint()` behind, or the result is flagged incorrect.
template <typename Setup, typename Fingerprint>
double time_setup(int reps, Setup&& setup, Fingerprint&& fingerprint,
                  Result& result) {
  std::vector<double> times;
  std::uint64_t first = 0;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
    const std::uint64_t print = fingerprint();
    if (i == 0) first = print;
    if (print != first) result.fail("set-up is not deterministic at this seed");
  }
  return median(times);
}

/// Counts the program's telemetry registry already keeps, as attributed to
/// one rank (its own thread plus the pool jobs it submitted). Read only
/// while the registry is enabled.
struct RankCounts {
  std::uint64_t gemm_calls = 0, pool_jobs = 0, comm_bytes = 0,
                comm_messages = 0;
  double gemm_s = 0, recv_wait_s = 0;

  static RankCounts read(int rank);
};

/// FNV-1a over raw bytes; fingerprints of generated inputs.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 1469598103934665603ull);

}  // namespace ledger
