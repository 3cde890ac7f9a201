// e2ebench: runs one workload for a given time and prints, as the last line
// of standard output, one JSON object with the operation counts, whether
// every output passed its check, and the metrics:
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
//   e2ebench --workload adhoc-sql --seed N --print-sql
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and reports the per-layer metrics plus the tracing
// overhead (traced against untraced median operation time), writing the
// spans to --trace-out when given. Operation times, throughput and set-up
// time are read from the process CPU clock (see workloads.h); the spans,
// and the length of the run, from the steady wall clock. --print-sql prints
// the adhoc-sql statements of a seed, one per line, to rerun any of them
// through run_query --sql.
// See README.md for the workloads and the metric map.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/operator_stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using e2ebench::Layers;
using e2ebench::RunRecord;

// Set-ups per run, spread over it; setup_s is the median of their CPU time.
constexpr size_t kSetups = 3;
// A run completes at least this many operations, so that its slowest 5%
// hold at least ten samples.
constexpr size_t kMinSamples = 200;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool print_sql = false;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload W --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n"
               "       e2ebench --workload adhoc-sql --seed N --print-sql\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--print-sql") {
      args->print_sql = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty();
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

/// Mean of the slowest `share` of the sample (at least one value); 0 for an
/// empty sample.
double TailMean(std::vector<double> v, double share) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end(), std::greater<double>());
  size_t k = static_cast<size_t>(std::ceil(share * static_cast<double>(v.size())));
  k = std::max<size_t>(k, 1);
  double sum = 0;
  for (size_t i = 0; i < k; ++i) sum += v[i];
  return sum / static_cast<double>(k);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const RunRecord& r,
                             const std::vector<double>& round_qps,
                             double setup_s) {
  const double n = static_cast<double>(r.latency_ms.size());
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", setup_s, "s"},
      {"query_cpu_ms.p50", Percentile(r.latency_ms, 0.50), "ms"},
      {"query_cpu_ms.p95_tail_mean", TailMean(r.latency_ms, 0.05), "ms"},
      {"queries_per_cpu_s", Percentile(round_qps, 0.5), "queries/cpu-s"},
      {"bytes_scanned_per_query",
       Ratio(static_cast<double>(r.bytes_scanned), n), "bytes"},
      {"peak_hash_bytes_per_query",
       Ratio(static_cast<double>(r.peak_hash_bytes), n), "bytes"},
      {"rss_peak_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> PerLayer(const RunRecord& r, const e2ebench::Tracer& t,
                             double datagen_s) {
  const Layers& l = r.layers;
  const double ops = static_cast<double>(l.ops);
  std::map<std::string, std::vector<double>> spans = t.SelfMicrosByName();
  auto span = [&](const char* name, double q) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Percentile(it->second, q);
  };
  auto self_us = [&](const char* group) {
    auto it = l.self_ns.find(group);
    return it == l.self_ns.end() ? 0.0 : Ratio(it->second * 1e-3, ops);
  };
  return {
      {"tpcds.datagen_s", datagen_s, "s"},
      {"sql.parse_us.p50", span("sql.parse", 0.5), "us"},
      {"sql.bind_us.p50", span("sql.bind", 0.5), "us"},
      {"optimizer.optimize_us.p50", span("optimizer.optimize", 0.5), "us"},
      {"optimizer.optimize_us.p95", span("optimizer.optimize", 0.95), "us"},
      {"optimizer.rule_attempts_per_query",
       Ratio(static_cast<double>(l.rule_attempts), ops), "count"},
      {"optimizer.rules_fired_per_query",
       Ratio(static_cast<double>(l.rules_fired), ops), "count"},
      {"optimizer.ops_removed_per_query",
       Ratio(static_cast<double>(l.ops_removed), ops), "count"},
      {"fusion.fuse_calls_per_query",
       Ratio(static_cast<double>(l.fuse_calls), ops), "count"},
      {"fusion.fuse_ok_ratio",
       Ratio(static_cast<double>(l.fuse_ok), static_cast<double>(l.fuse_calls)),
       "ratio"},
      {"analysis.verify_us.p50", span("analysis.verify", 0.5), "us"},
      {"exec.execute_us.p50", span("exec.execute", 0.5), "us"},
      {"exec.execute_us.p95", span("exec.execute", 0.95), "us"},
      {"exec.scan_self_us", self_us("scan"), "us"},
      {"exec.join_self_us", self_us("join"), "us"},
      {"exec.aggregate_self_us", self_us("aggregate"), "us"},
      {"exec.window_self_us", self_us("window"), "us"},
      {"exec.sort_self_us", self_us("sort"), "us"},
      {"exec.other_self_us", self_us("other"), "us"},
      {"exec.pipeline_compiled_ratio",
       Ratio(static_cast<double>(l.pipelines_compiled),
             static_cast<double>(l.pipelines_considered)),
       "ratio"},
      {"exec.rows_scanned_per_query", Ratio(l.rows_scanned, ops), "count"},
      {"exec.partitions_pruned_per_query", Ratio(l.partitions_pruned, ops),
       "count"},
      {"server.queue_wait_us.p50", Percentile(l.queue_wait_us, 0.5), "us"},
      {"server.execute_us.p50", Percentile(l.server_execute_us, 0.5), "us"},
      {"server.sessions_per_batch",
       Ratio(static_cast<double>(l.server_sessions),
             static_cast<double>(l.server_batches)),
       "count"},
      {"server.shared_session_ratio",
       Ratio(static_cast<double>(l.shared_sessions),
             static_cast<double>(l.server_sessions)),
       "ratio"},
      {"server.bytes_saved_ratio",
       l.isolated_bytes > 0
           ? 1.0 - static_cast<double>(l.server_bytes) /
                       static_cast<double>(l.isolated_bytes)
           : 0.0,
       "ratio"},
      {"trace.overhead_pct",
       100.0 * (Ratio(Percentile(r.traced_latency_ms, 0.5),
                      Percentile(r.latency_ms, 0.5)) -
                1.0),
       "%"},
  };
}

void PrintResult(const RunRecord& r, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.wrong == 0 ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  if (args.print_sql) {
    if (args.workload != "adhoc-sql") return Usage("--print-sql needs adhoc-sql");
    auto texts = e2ebench::AdhocSql(args.seed);
    if (!texts.ok()) {
      std::fprintf(stderr, "e2ebench: %s\n", texts.status().ToString().c_str());
      return 1;
    }
    for (const std::string& text : *texts) std::printf("%s\n", text.c_str());
    return 0;
  }

  // Each set-up frees the previous workload, then generates the catalog and
  // computes the oracles from scratch. The same seed gives the same inputs,
  // so a workload set up again carries on with identical rounds.
  std::vector<double> setup_s, datagen_s;
  std::unique_ptr<e2ebench::Workload> workload;
  auto set_up = [&]() {
    workload.reset();
    double datagen = 0;
    const int64_t start = e2ebench::CpuNanos();
    auto made = e2ebench::SetUp(args.workload, args.seed, &datagen);
    if (!made.ok()) {
      std::fprintf(stderr, "e2ebench: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return false;
    }
    workload = std::move(made).ValueOrDie();
    setup_s.push_back(static_cast<double>(e2ebench::CpuNanos() - start) * 1e-9);
    datagen_s.push_back(datagen);
    return true;
  };
  if (!set_up()) return 1;

  // Whole rounds until the time is up and enough operations completed; a
  // traced run alternates untraced and traced rounds and ends on a traced one.
  // Throughput is the median over untraced rounds of operations completed
  // per CPU second of the round's timed phase. The later set-ups fall between
  // rounds, after each further 1/kSetups of the run, so that their median
  // does not rest on one moment of a host whose speed drifts; their time is
  // left out of the run's clock.
  RunRecord record;
  e2ebench::Tracer tracer;
  std::vector<double> round_qps;
  const int64_t start = fusiondb::NowNanos();
  int64_t later_setups_ns = 0;
  for (size_t round = 0;; ++round) {
    const bool traced = args.trace && round % 2 == 1;
    tracer.set_enabled(traced);
    const size_t done_before = record.latency_ms.size();
    const int64_t timed_before = record.timed_ns;
    workload->RunRound(&tracer, &record);
    if (record.timed_ns > timed_before) {
      round_qps.push_back(
          static_cast<double>(record.latency_ms.size() - done_before) /
          (static_cast<double>(record.timed_ns - timed_before) * 1e-9));
    }
    const double elapsed =
        static_cast<double>(fusiondb::NowNanos() - start - later_setups_ns) *
        1e-9;
    const size_t samples =
        args.trace ? record.traced_latency_ms.size() : record.latency_ms.size();
    if (elapsed >= args.seconds && samples >= kMinSamples &&
        setup_s.size() == kSetups && (!args.trace || traced)) {
      break;
    }
    if (setup_s.size() < kSetups &&
        elapsed >= args.seconds * static_cast<double>(setup_s.size()) /
                       static_cast<double>(kSetups)) {
      const int64_t setup_start = fusiondb::NowNanos();
      if (!set_up()) return 1;
      later_setups_ns += fusiondb::NowNanos() - setup_start;
    }
  }
  tracer.set_enabled(false);

  std::fprintf(stderr, "%s seed %llu: %lld attempted, %lld failed, %lld wrong\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<long long>(record.attempted),
               static_cast<long long>(record.failed),
               static_cast<long long>(record.wrong));
  if (!record.first_problem.empty()) {
    std::fprintf(stderr, "first problem: %s\n", record.first_problem.c_str());
  }
  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteJsonLines(args.trace_out)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  PrintResult(record, args.trace
                          ? PerLayer(record, tracer, Percentile(datagen_s, 0.5))
                          : EndToEnd(record, round_qps,
                                     Percentile(setup_s, 0.5)));
  return 0;
}
