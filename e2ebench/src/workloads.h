// The benchmark's four workloads. Each is set up once per repetition
// (catalog, value pool, correctness oracles) and then runs whole rounds of
// operations; an operation is a whole query from Engine::Prepare to the
// last row (or, in server-mix, from Submit until the session completes).
//
// Operations and rounds are timed on the process CPU clock (CpuNanos), which
// advances only while a thread of this process runs. On a shared host the
// wall clock also counts the time the host gives to other work, and that
// share changes from minute to minute.
#ifndef FUSIONDB_E2EBENCH_WORKLOADS_H_
#define FUSIONDB_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <ctime>

#include "common/status.h"
#include "trace.h"

namespace e2ebench {

/// The process CPU clock: CPU time used so far by all threads of the
/// process, in nanoseconds. Time the host runs other work, steal time
/// included, is not counted.
inline int64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Per-layer counters, gathered in traced rounds only.
struct Layers {
  int64_t ops = 0;  // completed operations in traced rounds
  int64_t rule_attempts = 0;
  int64_t rules_fired = 0;
  int64_t ops_removed = 0;
  int64_t fuse_calls = 0;
  int64_t fuse_ok = 0;
  // Operator self time (ns) by group: scan, join, aggregate, window, sort,
  // other. A shared server execution is split evenly over its sessions.
  std::map<std::string, double> self_ns;
  int64_t pipelines_compiled = 0;
  int64_t pipelines_considered = 0;
  double rows_scanned = 0;
  double partitions_pruned = 0;
  std::vector<double> queue_wait_us;
  std::vector<double> server_execute_us;
  int64_t server_sessions = 0;
  int64_t server_batches = 0;
  int64_t shared_sessions = 0;
  int64_t server_bytes = 0;
  int64_t isolated_bytes = 0;
};

/// Everything one run measured.
struct RunRecord {
  int64_t attempted = 0;
  int64_t failed = 0;  // operations that returned an error
  int64_t wrong = 0;   // completed operations whose output failed its check
  std::string first_problem;
  // End-to-end figures, from untraced rounds, on the process CPU clock.
  int64_t timed_ns = 0;  // serial: time inside operations; server: rounds
  std::vector<double> latency_ms;
  int64_t bytes_scanned = 0;    // physical
  int64_t peak_hash_bytes = 0;  // summed over operations
  // Traced rounds: operation latencies (for the tracing overhead) and the
  // per-layer counters.
  std::vector<double> traced_latency_ms;
  Layers layers;

  void Problem(int64_t* counter, const std::string& what) {
    ++*counter;
    if (first_problem.empty()) first_problem = what;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one round: the same operations every round, in a seeded order.
  /// The round is traced when `tracer` is enabled.
  virtual void RunRound(Tracer* tracer, RunRecord* record) = 0;
};

/// Builds workload `name` for `seed`: catalog, value pool and oracles; an
/// unknown name is an InvalidArgument error.
/// `datagen_s` receives the time spent generating the catalog.
fusiondb::Result<std::unique_ptr<Workload>> SetUp(const std::string& name,
                                                  uint64_t seed,
                                                  double* datagen_s);

/// The adhoc-sql statements for `seed`, one per round position.
fusiondb::Result<std::vector<std::string>> AdhocSql(uint64_t seed);

}  // namespace e2ebench

#endif  // FUSIONDB_E2EBENCH_WORKLOADS_H_
