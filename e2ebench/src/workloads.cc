#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>
#include <thread>

#include "analysis/plan_verifier.h"
#include "fusiondb.h"
#include "oracle.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "sql/random_query.h"

namespace e2ebench {

using namespace fusiondb;  // NOLINT

namespace {

// Data scales. The TPC-DS workloads use the repository's bench scale, where
// execution does most of the work; adhoc-sql uses the fuzz scale, where the
// front door, the optimizer and per-query executor costs become a large
// share. The catalog seed is the generator's default, so run_query
// reproduces any query on the same data.
constexpr double kTpcdsScale = 0.05;
constexpr double kAdhocScale = 0.005;
// adhoc-sql: a round runs a fixed corpus, generated from the SQL fuzz
// test's default seed, plus a tenth as many statements generated from the
// run's seed. Averages over a generated set (bytes, hash memory) and the
// peak RSS, which its heaviest statement sets, varied by 8-45% between
// wholly seeded sets of up to 3000 statements; with the fixed part they
// vary by a few percent while the seeded part still varies the input. The
// value pool samples rows per table for literals as the fuzz test does.
constexpr uint64_t kFixedCorpusSeed = 20260807;
constexpr size_t kFixedQueries = 1500;
constexpr size_t kSeededQueries = 150;
constexpr size_t kPoolRowsPerTable = 24;
// server-mix: logical clients, and operations each completes per round.
constexpr size_t kClients = 16;
constexpr size_t kOpsPerClient = 4;
// How long the server-mix driver sleeps when no session has completed. A
// session's time is read when its completion is seen, so it can include up
// to this much of the server's further work; sessions take hundreds of ms.
constexpr std::chrono::milliseconds kPollInterval{1};

/// A query as the benchmark hands it to Engine::Prepare.
struct QuerySource {
  const tpcds::TpcdsQuery* tpcds = nullptr;  // plan builder, or
  std::string sql;                           // SQL text
  std::string label;  // query name, or adhoc-<position> in the seed's list
};

const char* KindGroup(const std::string& kind) {
  if (kind == "Scan") return "scan";
  if (kind == "Join") return "join";
  if (kind == "Aggregate") return "aggregate";
  if (kind == "Window") return "window";
  if (kind == "Sort") return "sort";
  return "other";
}

void AddOptimizerTrace(const OptimizerTrace& trace, Layers* layers) {
  for (const RulePhaseStats& r : trace.rule_stats()) {
    layers->rule_attempts += r.attempts;
    layers->rules_fired += r.fired;
  }
  for (const RuleFiring& f : trace.firings()) {
    layers->ops_removed += f.ops_before - f.ops_after;
  }
  for (const FusionStep& s : trace.fusion_steps()) {
    ++layers->fuse_calls;
    if (s.fused) ++layers->fuse_ok;
  }
}

/// Operator self times and scan counters of one result. A result served
/// from an execution shared by `consumers` sessions carries that whole
/// execution's counters, so each session takes an even share.
void AddExecution(const QueryResult& result, int consumers, Layers* layers) {
  double share = 1.0 / std::max(consumers, 1);
  for (const OperatorStats& s : result.operator_stats()) {
    layers->self_ns[KindGroup(s.kind)] += static_cast<double>(s.self_ns) * share;
  }
  for (const PipelineRecord& p : result.pipelines()) {
    ++layers->pipelines_considered;
    if (p.compiled()) ++layers->pipelines_compiled;
  }
  layers->rows_scanned += static_cast<double>(result.metrics().rows_scanned) * share;
  layers->partitions_pruned +=
      static_cast<double>(result.metrics().partitions_pruned) * share;
}

Result<PreparedQuery> Prepare(Engine* engine, const QuerySource& source,
                              Tracer* tracer, int32_t parent, int64_t op) {
  if (source.tpcds != nullptr) {
    int32_t span = tracer->Begin("tpcds.build", parent, op);
    Result<PreparedQuery> prepared = engine->Prepare(source.tpcds->build);
    tracer->End(span);
    return prepared;
  }
  if (!tracer->enabled()) return engine->Prepare(source.sql);
  // Engine::Prepare(text) is sql::Parse then sql::Bind. The traced run makes
  // the same two calls through the plan-builder overload to time each.
  return engine->Prepare(
      [&](const Catalog& catalog, PlanContext* ctx) -> Result<PlanPtr> {
        std::vector<sql::SqlDiagnostic> diagnostics;
        int32_t span = tracer->Begin("sql.parse", parent, op);
        std::unique_ptr<sql::Statement> stmt =
            sql::Parse(source.sql, &diagnostics);
        tracer->End(span);
        if (stmt == nullptr) {
          return sql::DiagnosticsToStatus(source.sql, diagnostics);
        }
        span = tracer->Begin("sql.bind", parent, op);
        PlanPtr plan = sql::Bind(*stmt, catalog, ctx, &diagnostics);
        tracer->End(span);
        if (plan == nullptr) {
          return sql::DiagnosticsToStatus(source.sql, diagnostics);
        }
        return plan;
      });
}

struct Operation {
  Result<QueryResult> result{Status::ExecutionError("not run")};
  int64_t ns = 0;
};

/// One operation: Prepare, Optimize, ExecuteOptimized to the last row, timed
/// on the process CPU clock; with one thread that is the query's CPU time.
/// Traced, it also attaches an OptimizerTrace and, after the operation's
/// clock has stopped, verifies the optimized plan once.
Operation RunOperation(Engine* engine, const QuerySource& source,
                       QueryOptions options, Tracer* tracer, RunRecord* record) {
  const int64_t op = record->attempted++;
  const bool traced = tracer->enabled();
  OptimizerTrace trace;
  if (traced) options.trace = &trace;
  Operation out;
  PlanPtr optimized;
  const int64_t start = CpuNanos();
  int32_t root = tracer->Begin("operation", -1, op, source.label);
  Result<PreparedQuery> prepared = Prepare(engine, source, tracer, root, op);
  if (!prepared.ok()) {
    out.result = prepared.status();
  } else {
    int32_t span = tracer->Begin("optimizer.optimize", root, op);
    Result<PlanPtr> plan = engine->Optimize(&*prepared, options);
    tracer->End(span);
    if (!plan.ok()) {
      out.result = plan.status();
    } else {
      optimized = *plan;
      span = tracer->Begin("exec.execute", root, op);
      out.result = engine->ExecuteOptimized(optimized, options);
      tracer->End(span);
    }
  }
  tracer->End(root);
  out.ns = CpuNanos() - start;

  if (!out.result.ok()) {
    record->Problem(&record->failed, out.result.status().ToString());
    return out;
  }
  const double ms = static_cast<double>(out.ns) * 1e-6;
  if (!traced) {
    record->timed_ns += out.ns;
    record->latency_ms.push_back(ms);
    record->bytes_scanned += out.result->metrics().bytes_scanned;
    record->peak_hash_bytes += out.result->metrics().peak_hash_bytes;
    return out;
  }
  record->traced_latency_ms.push_back(ms);
  Layers* layers = &record->layers;
  ++layers->ops;
  AddOptimizerTrace(trace, layers);
  AddExecution(*out.result, 1, layers);
  int32_t span = tracer->Begin("analysis.verify", -1, op);
  Status verified = PlanVerifier::Verify(optimized, "e2ebench");
  tracer->End(span);
  if (!verified.ok()) record->Problem(&record->wrong, verified.ToString());
  return out;
}

Result<std::unique_ptr<Engine>> TpcdsEngine(double scale, double* datagen_s) {
  auto engine = std::make_unique<Engine>();
  tpcds::TpcdsOptions options;
  options.scale = scale;
  int64_t start = CpuNanos();
  FUSIONDB_RETURN_IF_ERROR(
      tpcds::BuildTpcdsCatalog(options, engine->mutable_catalog()));
  *datagen_s = static_cast<double>(CpuNanos() - start) * 1e-9;
  return engine;
}

/// Runs `source` once outside any measurement (oracle computation).
Result<QueryResult> RunReference(Engine* engine, const QuerySource& source,
                                 const QueryOptions& options) {
  Result<PreparedQuery> prepared =
      source.tpcds != nullptr ? engine->Prepare(source.tpcds->build)
                              : engine->Prepare(source.sql);
  FUSIONDB_RETURN_IF_ERROR(prepared.status());
  FUSIONDB_ASSIGN_OR_RETURN(PlanPtr plan, engine->Optimize(&*prepared, options));
  return engine->ExecuteOptimized(plan, options);
}

bool AdditiveMetricsEqual(const ExecMetrics& a, const ExecMetrics& b) {
  return a.bytes_scanned == b.bytes_scanned &&
         a.rows_scanned == b.rows_scanned &&
         a.partitions_scanned == b.partitions_scanned &&
         a.partitions_pruned == b.partitions_pruned &&
         a.rows_produced == b.rows_produced &&
         a.spool_bytes_written == b.spool_bytes_written &&
         a.spool_bytes_read == b.spool_bytes_read;
}

// --- tpcds-serial / tpcds-parallel -----------------------------------------

/// The 18 TPC-DS queries, one at a time, in a new seeded order each round.
/// With parallelism 1 each fused result is checked against baseline mode
/// (and q09/q28 against plain loops); with more threads, against the serial
/// fused run, additive metrics included.
class TpcdsWorkload : public Workload {
 public:
  static Result<std::unique_ptr<Workload>> Make(uint64_t seed,
                                                size_t parallelism,
                                                double* datagen_s) {
    std::unique_ptr<TpcdsWorkload> w(new TpcdsWorkload(seed, parallelism));
    FUSIONDB_ASSIGN_OR_RETURN(w->engine_, TpcdsEngine(kTpcdsScale, datagen_s));
    w->options_.exec.parallelism = parallelism;
    for (const tpcds::TpcdsQuery& q : tpcds::Queries()) {
      Reference ref;
      ref.source.tpcds = &q;
      ref.source.label = q.name;
      QueryOptions reference_options =
          parallelism == 1 ? QueryOptions::Baseline() : QueryOptions::Fused();
      FUSIONDB_ASSIGN_OR_RETURN(
          ref.result,
          RunReference(w->engine_.get(), ref.source, reference_options));
      if (parallelism == 1 && q.name == "q09") {
        FUSIONDB_ASSIGN_OR_RETURN(ref.plain, ComputeQ09(w->engine_->catalog()));
      }
      if (parallelism == 1 && q.name == "q28") {
        FUSIONDB_ASSIGN_OR_RETURN(ref.plain, ComputeQ28(w->engine_->catalog()));
      }
      w->refs_.push_back(std::move(ref));
    }
    return std::unique_ptr<Workload>(std::move(w));
  }

  void RunRound(Tracer* tracer, RunRecord* record) override {
    std::vector<size_t> order(refs_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t i : order) {
      const Reference& ref = refs_[i];
      Operation op = RunOperation(engine_.get(), ref.source, options_, tracer,
                                  record);
      if (!op.result.ok()) continue;
      std::string problem = Check(ref, *op.result);
      if (!problem.empty()) {
        record->Problem(&record->wrong, ref.source.tpcds->name + ": " + problem);
      }
    }
  }

 private:
  struct Reference {
    QuerySource source;
    QueryResult result;  // baseline mode (serial) or serial fused (parallel)
    std::optional<ExpectedRows> plain;
  };

  TpcdsWorkload(uint64_t seed, size_t parallelism)
      : rng_(seed), parallelism_(parallelism) {}

  std::string Check(const Reference& ref, const QueryResult& got) const {
    if (!ResultsEquivalent(got, ref.result)) {
      return parallelism_ == 1 ? "fused rows differ from baseline"
                               : "parallel rows differ from serial";
    }
    if (parallelism_ == 1) {
      if (got.metrics().bytes_scanned > ref.result.metrics().bytes_scanned) {
        return "fused scanned more bytes than baseline";
      }
      if (ref.plain.has_value()) {
        std::string diff = CompareRows(got, *ref.plain);
        if (!diff.empty()) return "differs from plain-loop answer: " + diff;
      }
    } else if (!AdditiveMetricsEqual(got.metrics(), ref.result.metrics())) {
      return "parallel metrics differ from serial";
    }
    return "";
  }

  std::mt19937_64 rng_;
  size_t parallelism_;
  std::unique_ptr<Engine> engine_;
  QueryOptions options_ = QueryOptions::Fused();
  std::vector<Reference> refs_;
};

// --- adhoc-sql --------------------------------------------------------------

/// FNV-1a over the rendered rows, in order. The adhoc oracle keeps this
/// digest instead of the rows, so that the memory it holds does not grow
/// with the seed's result sizes.
uint64_t RowsDigest(const QueryResult& result) {
  uint64_t h = 14695981039346656037ULL;
  for (const std::string& row : result.RenderRows(/*sorted=*/false)) {
    for (char c : row) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    h = (h ^ 0xffu) * 1099511628211ULL;  // row separator
  }
  return h;
}

Result<sql::ValuePool> SampleValuePool(Engine* engine) {
  sql::ValuePool pool;
  std::vector<std::string> names = engine->catalog().TableNames();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    FUSIONDB_ASSIGN_OR_RETURN(
        QueryResult result,
        engine->ExecuteSql("SELECT * FROM " + name + " LIMIT " +
                           std::to_string(kPoolRowsPerTable)));
    std::vector<std::vector<Value>>& rows = pool.rows[name];
    for (int64_t r = 0; r < result.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < result.schema().num_columns(); ++c) {
        row.push_back(result.At(r, static_cast<int>(c)));
      }
      rows.push_back(std::move(row));
    }
  }
  return pool;
}

Result<std::vector<std::string>> GenerateAdhocSql(Engine* engine,
                                                  uint64_t seed) {
  FUSIONDB_ASSIGN_OR_RETURN(sql::ValuePool pool, SampleValuePool(engine));
  std::vector<std::string> out;
  std::mt19937_64 fixed(kFixedCorpusSeed);
  for (size_t i = 0; i < kFixedQueries; ++i) {
    out.push_back(sql::GenerateQuery(engine->catalog(), pool, fixed).ToSql());
  }
  std::mt19937_64 seeded(seed);
  for (size_t i = 0; i < kSeededQueries; ++i) {
    out.push_back(sql::GenerateQuery(engine->catalog(), pool, seeded).ToSql());
  }
  return out;
}

/// Seeded generated SQL on one thread over the fuzz-scale catalog. Each
/// compiled fused result is checked against baseline mode on the
/// interpreted backend (generated queries order every output column, so
/// rows compare in order).
class AdhocWorkload : public Workload {
 public:
  static Result<std::unique_ptr<Workload>> Make(uint64_t seed,
                                                double* datagen_s) {
    std::unique_ptr<AdhocWorkload> w(new AdhocWorkload(seed));
    FUSIONDB_ASSIGN_OR_RETURN(w->engine_, TpcdsEngine(kAdhocScale, datagen_s));
    FUSIONDB_ASSIGN_OR_RETURN(std::vector<std::string> texts,
                              GenerateAdhocSql(w->engine_.get(), seed));
    QueryOptions reference = QueryOptions::Baseline();
    reference.exec.compile_pipelines = false;
    for (std::string& text : texts) {
      Reference ref;
      ref.source.label = "adhoc-" + std::to_string(w->refs_.size());
      ref.source.sql = std::move(text);
      FUSIONDB_ASSIGN_OR_RETURN(
          QueryResult result,
          RunReference(w->engine_.get(), ref.source, reference));
      ref.rows = RowsDigest(result);
      w->refs_.push_back(std::move(ref));
    }
    return std::unique_ptr<Workload>(std::move(w));
  }

  void RunRound(Tracer* tracer, RunRecord* record) override {
    std::vector<size_t> order(refs_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (size_t i : order) {
      Operation op = RunOperation(engine_.get(), refs_[i].source,
                                  QueryOptions::Fused(), tracer, record);
      if (op.result.ok() && RowsDigest(*op.result) != refs_[i].rows) {
        record->Problem(&record->wrong,
                        "rows differ from interpreted baseline: " +
                            refs_[i].source.sql);
      }
    }
  }

 private:
  struct Reference {
    QuerySource source;
    uint64_t rows = 0;  // RowsDigest of the interpreted baseline result
  };

  explicit AdhocWorkload(uint64_t seed) : rng_(seed) {}

  std::mt19937_64 rng_;
  std::unique_ptr<Engine> engine_;
  std::vector<Reference> refs_;
};

// --- server-mix -------------------------------------------------------------

/// A closed loop of kClients logical clients, all driven from this thread
/// through Engine::StartServer and Submit with the default admission
/// window. A round is a fixed skewed multiset of the TPC-DS queries (query
/// i of the suite weighted 1/(i+1), every query at least once, so q95 is
/// always in it), shuffled by the seed and dealt kOpsPerClient to each
/// client. Each session's rows are checked against its isolated Engine
/// result, and the round's physical bytes against the bytes the round's
/// queries scan when each runs alone through the Engine.
class ServerWorkload : public Workload {
 public:
  static Result<std::unique_ptr<Workload>> Make(uint64_t seed,
                                                double* datagen_s) {
    std::unique_ptr<ServerWorkload> w(new ServerWorkload(seed));
    FUSIONDB_ASSIGN_OR_RETURN(w->engine_, TpcdsEngine(kTpcdsScale, datagen_s));
    const std::vector<tpcds::TpcdsQuery>& queries = tpcds::Queries();
    for (const tpcds::TpcdsQuery& q : queries) {
      QuerySource source;
      source.tpcds = &q;
      FUSIONDB_ASSIGN_OR_RETURN(
          QueryResult result,
          RunReference(w->engine_.get(), source, QueryOptions::Fused()));
      w->isolated_.push_back(std::move(result));
    }
    // Skewed counts: floor of the weighted share, at least one each, the
    // remainder to the most popular queries. The floors sum to at most
    // kClients * kOpsPerClient for the 18-query suite (58 of 64).
    const size_t total = kClients * kOpsPerClient;
    double weight_sum = 0;
    for (size_t i = 0; i < queries.size(); ++i) weight_sum += 1.0 / (i + 1);
    for (size_t i = 0; i < queries.size(); ++i) {
      size_t n = static_cast<size_t>(total / (i + 1.0) / weight_sum);
      w->mix_.insert(w->mix_.end(), std::max<size_t>(n, 1), i);
    }
    for (size_t i = 0; w->mix_.size() < total; ++i) w->mix_.push_back(i);
    return std::unique_ptr<Workload>(std::move(w));
  }

  void RunRound(Tracer* tracer, RunRecord* record) override {
    const bool traced = tracer->enabled();
    std::vector<size_t> ops = mix_;
    std::shuffle(ops.begin(), ops.end(), rng_);
    const std::vector<tpcds::TpcdsQuery>& queries = tpcds::Queries();
    // Plans are prepared before the round starts; an operation runs from
    // Submit until its session completes.
    std::vector<PreparedQuery> prepared;
    for (size_t q : ops) {
      Result<PreparedQuery> p = engine_->Prepare(queries[q].build);
      if (!p.ok()) {
        record->attempted += static_cast<int64_t>(ops.size());
        record->Problem(&record->failed, p.status().ToString());
        return;
      }
      prepared.push_back(std::move(p).ValueOrDie());
    }
    OptimizerTrace trace;
    ServerOptions options;
    if (traced) options.trace = &trace;
    MetricsSnapshot before = engine_->metrics()->Snapshot();
    Result<SessionManager*> started = engine_->StartServer(options);
    if (!started.ok()) {
      record->attempted += static_cast<int64_t>(ops.size());
      record->Problem(&record->failed, started.status().ToString());
      return;
    }
    SessionManager* server = *started;

    struct Client {
      size_t next = 0;  // position of its next operation in `ops`
      size_t end = 0;
      SessionPtr session;
      size_t current = 0;
      int64_t op = 0;
      int64_t submitted_ns = 0;
      int32_t span = -1;
    };
    std::vector<Client> clients(kClients);
    const int64_t round_start = CpuNanos();
    auto submit = [&](Client* c) {
      c->current = c->next++;
      c->op = record->attempted++;
      c->span = tracer->Begin("server.session", -1, c->op,
                              queries[ops[c->current]].name);
      c->submitted_ns = CpuNanos();
      Result<SessionPtr> s = engine_->Submit(prepared[c->current]);
      if (!s.ok()) {
        tracer->End(c->span);
        record->Problem(&record->failed, s.status().ToString());
        c->session = nullptr;
        return;
      }
      c->session = *s;
    };
    for (size_t i = 0; i < kClients; ++i) {
      clients[i].next = i * kOpsPerClient;
      clients[i].end = clients[i].next + kOpsPerClient;
      submit(&clients[i]);
    }
    // The driver thread sleeps between polls and checks the sessions after
    // the round, so that the process CPU clock measures the server's work.
    int64_t last_done = round_start;
    std::vector<Completed> to_check;
    for (;;) {
      bool active = false;
      bool completed = false;
      for (Client& c : clients) {
        // A failed Submit leaves no session; the client moves on.
        while (c.session == nullptr && c.next < c.end) submit(&c);
        if (c.session == nullptr) continue;
        active = true;
        if (!c.session->done()) continue;
        const int64_t now = CpuNanos();
        tracer->End(c.span);
        last_done = now;
        completed = true;
        to_check.push_back({c.session, ops[c.current], c.op,
                            static_cast<double>(now - c.submitted_ns) * 1e-6});
        c.session = nullptr;
        if (c.next < c.end) submit(&c);
      }
      if (!active) break;
      if (!completed) std::this_thread::sleep_for(kPollInterval);
    }
    for (const Completed& done : to_check) {
      CheckSession(done, traced, tracer, record);
    }
    // Stop drains the coordinator, so the totals include the last batch.
    // A new server per round makes them this round's.
    server->Stop();
    const int64_t bytes = server->total_bytes_scanned();
    const int64_t isolated = server->total_isolated_bytes_scanned();
    const int64_t shared = server->total_shared_sessions();
    engine_->StopServer();
    int64_t standalone = 0;
    for (size_t q : ops) standalone += isolated_[q].metrics().bytes_scanned;
    if (bytes > standalone) {
      record->Problem(&record->wrong,
                      "server scanned " + std::to_string(bytes) +
                          " bytes, more than the round's queries scan alone (" +
                          std::to_string(standalone) + ")");
    }
    if (!traced) {
      record->timed_ns += last_done - round_start;
      record->bytes_scanned += bytes;
      return;
    }
    MetricsSnapshot delta = engine_->metrics()->Snapshot().Diff(before);
    Layers* layers = &record->layers;
    AddOptimizerTrace(trace, layers);
    layers->server_sessions += delta.Counter("fusiondb_server_sessions_total");
    layers->server_batches += delta.Counter("fusiondb_server_batches_total");
    layers->shared_sessions += shared;
    layers->server_bytes += bytes;
    layers->isolated_bytes += isolated;
  }

 private:
  /// A session the driver saw complete, with its observed latency.
  struct Completed {
    SessionPtr session;
    size_t query = 0;
    int64_t op = 0;
    double ms = 0;
  };

  explicit ServerWorkload(uint64_t seed) : rng_(seed) {}

  void CheckSession(const Completed& done, bool traced, Tracer* tracer,
                    RunRecord* record) {
    const QuerySession& session = *done.session;
    const Result<QueryResult>& result = session.result();
    if (!result.ok()) {
      record->Problem(&record->failed, result.status().ToString());
      return;
    }
    if (!ResultsEquivalent(*result, isolated_[done.query])) {
      record->Problem(&record->wrong, tpcds::Queries()[done.query].name +
                                          ": session rows differ from "
                                          "isolated Engine result");
    }
    if (!traced) {
      record->latency_ms.push_back(done.ms);
      record->peak_hash_bytes += result->metrics().peak_hash_bytes;
      return;
    }
    record->traced_latency_ms.push_back(done.ms);
    Layers* layers = &record->layers;
    ++layers->ops;
    AddExecution(*result, session.sharing().consumers, layers);
    int32_t span = tracer->Begin("analysis.verify", -1, done.op);
    Status verified = PlanVerifier::Verify(session.executed_plan(), "e2ebench");
    tracer->End(span);
    if (!verified.ok()) record->Problem(&record->wrong, verified.ToString());
    layers->queue_wait_us.push_back(static_cast<double>(session.queue_wait_us()));
    layers->server_execute_us.push_back(
        static_cast<double>(session.execute_us()));
  }

  std::mt19937_64 rng_;
  std::unique_ptr<Engine> engine_;
  std::vector<QueryResult> isolated_;
  std::vector<size_t> mix_;  // query indexes of one round
};

}  // namespace

Result<std::unique_ptr<Workload>> SetUp(const std::string& name,
                                        uint64_t seed, double* datagen_s) {
  if (name == "tpcds-serial") return TpcdsWorkload::Make(seed, 1, datagen_s);
  if (name == "tpcds-parallel") {
    size_t threads = std::min<size_t>(std::thread::hardware_concurrency(), 4);
    return TpcdsWorkload::Make(seed, std::max<size_t>(threads, 1), datagen_s);
  }
  if (name == "adhoc-sql") return AdhocWorkload::Make(seed, datagen_s);
  if (name == "server-mix") return ServerWorkload::Make(seed, datagen_s);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Result<std::vector<std::string>> AdhocSql(uint64_t seed) {
  double datagen_s = 0;
  FUSIONDB_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                            TpcdsEngine(kAdhocScale, &datagen_s));
  return GenerateAdhocSql(engine.get(), seed);
}

}  // namespace e2ebench
