// Morsel-driven parallel execution: for every fusion-applicable TPC-DS
// query (baseline and fused plans), the median wall-clock latency of three
// runs at each thread count of the sweep (1, 2, 4, ...), and the speed-up of
// the widest run over the serial one. Before timing, each plan runs at
// every thread count and the binary exits 1 if results, bytes scanned or
// rows scanned differ from the serial run.
//
// What parallelism covers: scans, filters, projections and aggregation
// (per-worker partial tables merged afterwards). A hash join builds and
// probes on the calling thread, so queries whose time goes to joins gain
// little or nothing from more threads; aggregation-bound queries (q09, q28)
// are the ones that speed up. EXPERIMENTS.md records measured runs.
//
// Usage: parallel_scaling [max_threads]     (default: up to 8, capped at
// 2x hardware_concurrency; FUSIONDB_BENCH_SCALE scales the data)
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace fusiondb;         // NOLINT
using namespace fusiondb::bench;  // NOLINT

namespace {

QueryOptions ThreadedOptions(size_t threads) {
  QueryOptions options = BenchOptions(OptimizerOptions());
  options.exec.parallelism = threads;
  return options;
}

double MedianLatencyMs(const PlanPtr& plan, size_t threads, int repeats) {
  std::vector<double> times;
  times.reserve(repeats);
  for (int i = 0; i < repeats; ++i) {
    QueryResult r = Unwrap(
        BenchEngine().ExecuteOptimized(plan, ThreadedOptions(threads)));
    times.push_back(r.wall_ms());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t max_threads = argc > 1 ? std::atoi(argv[1]) : 8;
  if (max_threads > 2 * hw) max_threads = 2 * hw < 2 ? 2 : 2 * hw;
  if (max_threads < 1) max_threads = 1;
  std::vector<size_t> sweep;
  for (size_t t = 1; t <= max_threads; t *= 2) sweep.push_back(t);

  Engine& engine = BenchEngine();
  BenchReport report("parallel_scaling");
  std::printf("\nParallel scaling — morsel-driven execution, %u hardware "
              "thread(s) on this host\n\n",
              hw);
  std::printf("%-6s %-9s", "query", "plan");
  for (size_t t : sweep) std::printf(" %7zu-thr", t);
  std::printf(" %9s %6s\n", "speedup", "ok");
  std::printf("%s\n", std::string(16 + 11 * sweep.size() + 17, '-').c_str());

  bool all_ok = true;
  for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
    if (!q.fusion_applicable) continue;
    PreparedQuery prepared = Unwrap(engine.Prepare(q.build));
    for (bool fused : {false, true}) {
      OptimizerOptions options =
          fused ? OptimizerOptions::Fused() : OptimizerOptions::Baseline();
      PlanPtr optimized =
          Unwrap(engine.Optimize(&prepared, BenchOptions(options)));

      // Correctness gate: results and scan accounting must not depend on
      // the thread count.
      QueryResult serial =
          Unwrap(engine.ExecuteOptimized(optimized, ThreadedOptions(1)));
      bool ok = true;
      for (size_t t : sweep) {
        if (t == 1) continue;
        QueryResult r =
            Unwrap(engine.ExecuteOptimized(optimized, ThreadedOptions(t)));
        ok = ok && ResultsEquivalent(serial, r) &&
             r.metrics().bytes_scanned == serial.metrics().bytes_scanned &&
             r.metrics().rows_scanned == serial.metrics().rows_scanned;
      }
      all_ok = all_ok && ok;

      std::printf("%-6s %-9s", q.name.c_str(), fused ? "fused" : "baseline");
      double base_ms = 0.0;
      double best_ms = 0.0;
      for (size_t t : sweep) {
        double ms = MedianLatencyMs(optimized, t, 3);
        if (t == 1) base_ms = ms;
        best_ms = ms;
        // bytes/memory come from the serial run: both are thread-count
        // invariant (the gate above checks bytes explicitly).
        report.Add({q.name, fused ? "fused" : "baseline", ms,
                    serial.metrics().bytes_scanned,
                    serial.metrics().peak_hash_bytes,
                    static_cast<int64_t>(t)});
        std::printf(" %8.2fms", ms);
      }
      std::printf(" %8.2fx %6s\n", base_ms / best_ms, ok ? "yes" : "NO");
    }
  }
  std::printf(
      "\nEach cell is the median wall-clock latency of 3 runs; speedup = "
      "1-thread latency / %zu-thread latency. Scans and aggregation run on "
      "the workers; hash joins build and probe on the calling thread, so "
      "join-bound queries may show no speed-up, or a slowdown.\n",
      sweep.back());
  report.Write();
  return all_ok ? 0 : 1;
}
