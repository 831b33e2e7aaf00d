// Helpers shared by the workloads: statistics, memory, fingerprints and the
// per-rank counts read from the program's telemetry registry.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "ledger.hpp"
#include "telemetry/telemetry.hpp"

namespace ledger {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

RankCounts RankCounts::read(int rank) {
  const auto snap =
      ltfb::telemetry::Registry::instance().snapshot_rank(rank);
  RankCounts c;
  for (const auto& counter : snap.counters) {
    if (counter.name == "threadpool/tasks_submitted") {
      c.pool_jobs = counter.value;
    } else if (counter.name == "comm/send_bytes" ||
               counter.name == "comm/collective_bytes") {
      c.comm_bytes += counter.value;
    } else if (counter.name == "comm/send_messages" ||
               counter.name == "comm/collective_messages") {
      c.comm_messages += counter.value;
    }
  }
  for (const auto& timer : snap.timers) {
    if (timer.name == "tensor/gemm") {
      c.gemm_calls = timer.count;
      c.gemm_s = timer.total_s;
    } else if (timer.name == "comm/recv_wait") {
      c.recv_wait_s = timer.total_s;
    }
  }
  return c;
}

}  // namespace ledger
