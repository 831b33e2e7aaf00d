// LTFB perf ledger: runs one seeded workload through the public entry
// points (core::run_distributed_ltfb over comm::World, or
// datastore::DataStore over bundle files) and prints every metric by name
// with its unit, then one JSON result line:
//
//   perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir <dir>]
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced replay (see README.md).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "ledger.hpp"

namespace ledger {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"samples_per_s", "1/s"},  {"round_p50_ms", "ms"},
      {"round_p90_ms", "ms"},    {"val_loss", "mae"},
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"data.batch_ms", "ms"},
      {"gan.step_ms", "ms"},
      {"gan.step_self_ms", "ms"},
      {"gan.step_gflops", "GFLOP/s"},
      {"tensor.gemm_calls_per_step", "count"},
      {"tensor.gemm_ms_per_step", "ms"},
      {"tensor.gemm_share", "fraction"},
      {"util.pool_jobs_per_step", "count"},
      {"nn.bucket_hook_ms", "ms"},
      {"nn.allreduce_wait_ms", "ms"},
      {"nn.allreduce_bytes_per_step", "bytes"},
      {"nn.buckets_per_step", "count"},
      {"nn.overlap_fraction", "fraction"},
      {"comm.exchange_ms", "ms"},
      {"comm.shrink_ms", "ms"},
      {"comm.broadcast_ms", "ms"},
      {"comm.recv_wait_ms_per_step", "ms"},
      {"comm.bytes_per_round", "bytes"},
      {"comm.messages_per_round", "count"},
      {"core.score_ms", "ms"},
      {"core.checkpoint_ms", "ms"},
      {"core.checkpoint_bytes", "bytes"},
      {"core.round_self_ms", "ms"},
      {"core.rank_gap_ms", "ms"},
      {"core.adoption_ratio", "fraction"},
      {"core.span_coverage", "fraction"},
      {"datastore.preload_ms_max", "ms"},
      {"datastore.preload_ms_min", "ms"},
      {"datastore.fetch_ms", "ms"},
      {"datastore.bytes_per_step", "bytes"},
      {"datastore.local_hit_ratio", "fraction"},
      {"datastore.file_reads", "count"},
      {"telemetry.trace_overhead", "fraction"},
  };
  return specs;
}

}  // namespace ledger

namespace {

[[noreturn]] void usage(const char* why) {
  std::cerr << "perf_ledger: " << why
            << "\nusage: perf_ledger --workload <solo_narrow|dp_wide|"
               "tourney_socket|store_ingest> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n";
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options options;
  options.work_dir = ".bench_build/perf_ledger_work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0 && options.seconds <= 120.0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    usage("--workload, --seed, --seconds (0, 120] and --trace 0|1 are required");
  }

  ledger::Result result;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (ledger::is_ltfb_workload(options.workload)) {
      result = ledger::run_ltfb_workload(options);
    } else if (options.workload == "store_ingest") {
      result = ledger::run_store_workload(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perf_ledger: " << options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }

  const auto& specs = options.trace ? ledger::per_layer_metrics()
                                    : ledger::end_to_end_metrics();
  for (const auto& spec : specs) {
    if (result.metrics.count(spec.name) == 0) {
      result.fail(std::string("metric not produced: ") + spec.name);
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) continue;
    std::cout << "metric " << spec.name << " = " << json_number(it->second)
              << " " << spec.unit << "\n";
    json << (first ? "" : ", ") << "\"" << spec.name
         << "\": {\"value\": " << json_number(it->second) << ", \"unit\": \""
         << spec.unit << "\"}";
    first = false;
  }
  json << "}}";
  for (const auto& note : result.notes) std::cout << "note " << note << "\n";
  for (const auto& error : result.errors) {
    std::cerr << "perf_ledger: check failed: " << error << "\n";
  }
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}
