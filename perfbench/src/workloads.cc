#include "workloads.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "checks.h"
#include "drain.h"
#include "core/banks.h"
#include "core/query.h"
#include "datagen/dblp_gen.h"
#include "eval/workload.h"
#include "graph/graph_builder.h"
#include "http_client.h"
#include "index/inverted_index.h"
#include "inputs.h"
#include "reference.h"
#include "server/net/banks_service.h"
#include "server/net/http_server.h"
#include "server/query_cache.h"
#include "server/session_handle.h"
#include "server/session_pool.h"
#include "stats.h"

namespace perfbench {

namespace {

using banks::BanksEngine;
using banks::BanksOptions;
using banks::ConnectionTree;
using banks::Database;
using banks::NodeId;
using banks::QueryRequest;
using banks::Rid;
using banks::SearchStrategy;
namespace net = banks::server::net;

// Work per second of --seconds, sized so that a run takes about that long
// at reference speed. The work depends only on --seconds and the seed,
// never on the clock, so every run of one setting attempts the same
// operations.
constexpr double kSearchQueriesPerSecond = 4.0;  // each under 3 strategies
constexpr double kServeRequestsPerSecond = 150.0;
constexpr double kIngestBurstsPerSecond = 4.0;

// Every workload also runs the other two at a small fixed size after its
// timed window, so each run reports every metric; the metrics that name a
// workload in README.md are read on that workload.
constexpr size_t kEpilogueQueries = 12;
constexpr size_t kEpilogueRequests = 64;
constexpr size_t kEpilogueBursts = 64;

// The query set is the same in every run, drawn by the benchmark's
// generator from these seeds: with the database fixed too, runs repeat
// the same work and differ only in order, the serving stream's draws and
// the mutations, which --seed makes. (Drawing the queries from --seed put
// the spread of the query mix, 10-20% on ttk and qps, into every metric.)
constexpr uint64_t kWarmupQuerySeed = 1;
constexpr uint64_t kQuerySeed = 2;
constexpr size_t kWarmupQueries = 8;
constexpr size_t kK = 10;  // EvalWorkload::DefaultOptions().search.max_answers
constexpr size_t kConnections = 2;
constexpr size_t kServeWorkers = 2;
constexpr size_t kRoundRequests = 8;  // per connection between kernel slices
// The serving stream asks each of n / kServePoolDivisor distinct queries
// at least once among its n requests: 6 in 7 repeat an earlier one.
constexpr size_t kServePoolDivisor = 7;
constexpr size_t kBurstSize = 128;
constexpr size_t kRefreezeEvery = 4;  // bursts
constexpr size_t kFreshQueriesPerBurst = 3;
constexpr size_t kBaseQueriesPerBurst = 2;
constexpr size_t kOverlayProbes = 3;
// One restart's time varies by a third within a run; restart_ms, their
// median, spread by 0.10-0.13 over ten runs with 16 of them.
constexpr size_t kRestarts = 32;
// The planted anecdotes lead the query list and are the heaviest queries;
// the serving epilogue's pool starts after them.
constexpr size_t kAnecdotes = 8;
constexpr size_t kEndProbes = 4;  // base queries, plus as many fresh tokens
constexpr size_t kSchedProbes = 24;

constexpr SearchStrategy kStrategies[] = {SearchStrategy::kBackward,
                                          SearchStrategy::kForward,
                                          SearchStrategy::kBidirectional};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Restricts the process, and every thread it starts later, to the last
/// `n` CPUs it may run on. Where the threads land otherwise changes from
/// run to run, and with it the wake-up latency of every hand-off between
/// the client, the connection workers and the pool workers: sub-millisecond
/// serving latencies moved by half between runs. Two CPUs match the two
/// connections of the serving workload.
void PinToCpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      --n;
    }
  }
  sched_setaffinity(0, sizeof(use), &use);
}

/// More than k answers: a fault of the program (backward search returns 11
/// answers to some three-term queries, see CHANGES.md). Such a query is
/// counted as a failed operation; its output is not checked further.
bool OverK(const Drained& d) { return d.trees.size() > kK; }

class Bench {
 public:
  explicit Bench(const RunOptions& options)
      : opt_(options), trace_(options.trace) {}

  int Run();

 private:
  BanksOptions EngineOptions(bool live) const;
  Database Regenerate() const;
  BanksEngine& Plain();
  BanksEngine& Live();
  void StartServer();

  void SearchPhase(size_t n, bool main);
  void ServePhase(size_t n, bool main);
  void IngestPhase(size_t bursts, bool main);
  void RestartPhase(bool main);
  void LayerBuilds();

  /// Records a timed query of the main phase.
  void RecordQuery(bool main, const Drained& d);
  /// Ends the main phase's timed work.
  void CloseMain();
  /// Normalises the end-to-end samples that one phase recorded, from
  /// index `first` of each sample vector on, by that phase's factor.
  struct SampleMarks {
    size_t ttfa, ttk, batch_rate, refreeze, restart;
  };
  SampleMarks Marks() const;
  void NormalisePhase(const SampleMarks& first, double factor, bool main);
  /// Runs `work` as one phase and normalises the end-to-end samples it
  /// recorded by the slices run within it; `main` also scales the main
  /// phase's set-up and timed totals.
  template <typename Work>
  void Normalised(const char* phase, bool main, Work work);
  /// Prints the phase's wall time and kernel slices to stderr.
  void Note(const char* phase, double factor);
  void Fail(const std::string& what);
  int Report();

  RunOptions opt_;
  Trace trace_;
  Reference ref_;
  bool threads_ = false;  // program threads other than this one exist

  std::vector<GenQuery> warmup_;
  std::vector<GenQuery> queries_;
  // The queries asked of a database that --seed's mutations may have
  // changed (ingest, and every epilogue's search): queries_ without the
  // anecdotes, which the search workload covers, and without three-term
  // queries, to some of which backward search returns k + 1 answers over
  // some overlays (see FOUND in CHANGES.md): a failure that comes and goes
  // with the seed would change the share of failed operations per run.
  std::vector<GenQuery> overlay_queries_;
  std::unique_ptr<MutationGen> mutgen_;
  std::vector<banks::Mutation> log_;  // acknowledged mutations, in order
  std::string snapshot_dir_;
  std::string snapshot_path_;

  // Declared before the server so the server stops first.
  std::unique_ptr<BanksEngine> plain_;  // cache off, no pending mutations
  std::unique_ptr<BanksEngine> live_;   // cache on, takes the mutations
  std::unique_ptr<net::BanksService> service_;
  std::unique_ptr<net::HttpServer> server_;

  // End-to-end samples: raw while their phase runs, then normalised by
  // NormalisePhase.
  double setup_ms_ = 0.0;
  std::vector<double> ttfa_ms_, ttk_ms_;
  double timed_ms_ = 0.0;
  size_t completed_ = 0;
  std::vector<double> batch_rate_;  // acknowledged mutations per second
  std::vector<double> refreeze_ms_, restart_ms_;
  double snapshot_bytes_ = 0.0;
  double main_factor_ = 1.0;
  // VmHWM when the main phase's timed work ends: the engines and buffers
  // of its checks and of the epilogues are the benchmark's, not the
  // workload's.
  double peak_rss_mb_ = 0.0;
  Clock::time_point phase_start_ = Clock::now();
  size_t phase_slices_ = 0;

  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> errors_;

  // Per-layer samples that are not plain call durations.
  std::map<std::string, std::vector<double>> samples_;
};

BanksOptions Bench::EngineOptions(bool live) const {
  BanksOptions options = banks::EvalWorkload::DefaultOptions();
  options.cache.enabled = live;
  if (live) options.update.snapshot_path = snapshot_path_;
  return options;
}

Database Bench::Regenerate() const {
  Database db = banks::GenerateDblp(PaperScaleConfig()).db;
  if (!ReplayMutations(log_, &db)) {
    std::fprintf(stderr, "replaying the mutation log failed\n");
  }
  return db;
}

BanksEngine& Bench::Plain() {
  if (plain_ == nullptr) {
    plain_ = std::make_unique<BanksEngine>(Regenerate(), EngineOptions(false));
  }
  return *plain_;
}

BanksEngine& Bench::Live() {
  if (live_ == nullptr) {
    live_ = std::make_unique<BanksEngine>(Regenerate(), EngineOptions(true));
  }
  return *live_;
}

void Bench::StartServer() {
  if (server_ != nullptr) return;
  net::BanksServiceOptions service_options;
  service_options.pool.num_workers = kServeWorkers;
  service_ = std::make_unique<net::BanksService>(&Live(), service_options);
  net::HttpServerOptions server_options;
  server_options.num_threads = static_cast<int>(kConnections);
  server_ = std::make_unique<net::HttpServer>(
      server_options,
      [this](const net::HttpRequest& request, net::HttpResponseWriter& writer) {
        service_->Handle(request, writer);
      });
  if (!server_->Start().ok()) Fail("HTTP server did not start");
  threads_ = true;
}

void Bench::Fail(const std::string& what) {
  if (errors_.size() < 20) errors_.push_back(what);
}

void Bench::RecordQuery(bool main, const Drained& d) {
  if (!main) return;
  if (d.ttfa_ms >= 0.0) ttfa_ms_.push_back(d.ttfa_ms);
  ttk_ms_.push_back(d.ttk_ms);
  timed_ms_ += d.ttk_ms;
  ++completed_;
}

void Bench::CloseMain() { peak_rss_mb_ = PeakRssMb(); }

Bench::SampleMarks Bench::Marks() const {
  return {ttfa_ms_.size(), ttk_ms_.size(), batch_rate_.size(),
          refreeze_ms_.size(), restart_ms_.size()};
}

template <typename Work>
void Bench::Normalised(const char* phase, bool main, Work work) {
  ref_.Mark();
  const size_t first_slice = ref_.slices();
  const SampleMarks marks = Marks();
  work();
  // Each phase is normalised by the slices run within it: the machine's
  // speed drifts within a run, and a whole-run factor turned a slow main
  // phase beside a fast epilogue into high main times and low epilogue
  // times (refreeze_ms_p50 on `search` spread by 28% across ten runs).
  ref_.RunAtLeast(first_slice + Reference::kPhaseSlices, threads_);
  const double factor = ref_.FactorOver(first_slice, ref_.slices());
  NormalisePhase(marks, factor, main);
  Note(phase, factor);
}

void Bench::NormalisePhase(const SampleMarks& first, double factor,
                           bool main) {
  auto times = [factor](std::vector<double>* v, size_t from) {
    for (size_t i = from; i < v->size(); ++i) (*v)[i] *= factor;
  };
  times(&ttfa_ms_, first.ttfa);
  times(&ttk_ms_, first.ttk);
  times(&refreeze_ms_, first.refreeze);
  times(&restart_ms_, first.restart);
  for (size_t i = first.batch_rate; i < batch_rate_.size(); ++i) {
    batch_rate_[i] /= factor;
  }
  if (main) {
    main_factor_ = factor;
    setup_ms_ *= factor;
    timed_ms_ *= factor;
  }
}

void Bench::Note(const char* phase, double factor) {
  const Clock::time_point now = Clock::now();
  std::fprintf(stderr,
               "phase %s: %.2f s, %zu slices, factor %.4f, VmHWM %.1f MiB\n",
               phase, MsBetween(phase_start_, now) / 1e3,
               ref_.slices() - phase_slices_, factor, PeakRssMb());
  phase_start_ = now;
  phase_slices_ = ref_.slices();
}

// ------------------------------------------------------------------ search

void Bench::SearchPhase(size_t n, bool main) {
  BanksEngine& engine = Plain();
  if (main) {
    for (const GenQuery& q : warmup_) {
      for (SearchStrategy s : kStrategies) {
        Drain(engine, WithStrategy(engine, q.text, s));
      }
    }
  }
  struct Done {
    size_t query;
    SearchStrategy strategy;
    Drained d;
  };
  std::vector<Done> done;
  const std::vector<GenQuery>& list = main ? queries_ : overlay_queries_;
  n = std::min(n, list.size());
  ref_.BeginPhase(n * std::size(kStrategies));
  std::vector<size_t> order;
  for (size_t i = 0; i < n; ++i) order.push_back(i);
  std::mt19937_64 rng(opt_.seed);
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i : order) {
    for (SearchStrategy s : kStrategies) {
      ++attempted_;
      Drained d = Drain(engine, WithStrategy(engine, list[i].text, s));
      ref_.Idle(threads_);
      if (!d.ok || OverK(d)) {
        ++failed_;
        continue;
      }
      RecordQuery(main, d);
      done.push_back({i, s, std::move(d)});
    }
  }
  if (main) CloseMain();
  if (trace_.enabled()) {
    for (const Done& x : done) {
      const std::string name = banks::SearchStrategyName(x.strategy);
      const std::string core = "core." + name + ".";
      const Drained& d = x.d;
      samples_["core.open_ms"].push_back(d.open_ms);
      trace_.Count(core + "queries", 1);
      trace_.Count(core + "drain_ms", d.ttk_ms - d.open_ms);
      trace_.Count(core + "visits", static_cast<double>(d.stats.iterator_visits));
      trace_.Count(core + "answers", static_cast<double>(d.trees.size()));
      if (!d.trees.empty()) {
        trace_.Count(core + "answered", 1);
        trace_.Count(core + "visits_to_first",
                     static_cast<double>(d.visits_to_first));
        trace_.Count(core + "ttfa_ms", d.ttfa_ms);
        trace_.Count(core + "ttk_ms", d.ttk_ms);
      }
      trace_.Count("core.trees", static_cast<double>(d.stats.trees_generated));
      trace_.Count("core.duplicates",
                   static_cast<double>(d.stats.duplicates_discarded));
      trace_.Count("core.iterators", static_cast<double>(d.stats.num_iterators));
      trace_.Count("core.answers", static_cast<double>(d.trees.size()));
      trace_.Count("core.queries", 1);
    }
    // Keyword resolution alone, once per query, against the engine's state.
    for (size_t i = 0; i < n; ++i) {
      banks::LiveStateSnapshot st = engine.state();
      banks::KeywordResolver resolver(engine.db(), *st->dg, *st->index,
                                      *st->metadata, st->numeric.get(),
                                      st->delta.get(), st->index_delta.get());
      const banks::ParsedQuery parsed = banks::ParseQuery(list[i].text);
      {
        ScopedSpan span(&trace_, "index.resolve", i);
        resolver.ResolveAllScored(parsed, engine.options().match);
      }
      ref_.Idle(threads_);
    }
  }
  // Checks, outside the timed region.
  for (const Done& x : done) {
    const GenQuery& q = list[x.query];
    const std::string where =
        "search '" + q.text + "' " + banks::SearchStrategyName(x.strategy) + ": ";
    std::string error =
        CheckAnswers(engine.db(), Tokens(q.text), x.d.trees, kK, x.d.rid_of);
    if (!error.empty()) Fail(where + error);
    if (q.coauthor && x.strategy != SearchStrategy::kForward &&
        x.d.trees.empty()) {
      Fail(where + "no answer to a coauthor query");
    }
  }
  ref_.Mark();
}

// ------------------------------------------------------------------- serve

void Bench::ServePhase(size_t n, bool main) {
  BanksEngine& engine = Live();
  StartServer();
  // An epilogue's pool skips the anecdotes, the heaviest queries, which
  // the main phase of the search workload covers.
  const size_t first_query = main ? 0 : kAnecdotes;
  const size_t pool = std::min(std::max<size_t>(n / kServePoolDivisor, 8),
                               queries_.size() - first_query);
  auto text_of = [&](size_t slot) -> const std::string& {
    return queries_[first_query + slot].text;
  };
  const std::vector<ServeRequest> stream =
      GenerateServeStream(opt_.seed * 7919 + (main ? 1 : 2), pool, n);
  auto body = [](const std::string& text, bool render) {
    return "{\"text\":\"" + text + "\"" + (render ? ",\"render\":true" : "") +
           "}";
  };
  ClosedLoopClient client(server_ == nullptr ? 0 : server_->port(),
                          kConnections);
  if (!client.ok()) {
    Fail("cannot connect to the HTTP server");
    attempted_ += n;
    failed_ += n;
    return;
  }
  if (main) {
    std::vector<std::string> warm;
    for (const GenQuery& q : warmup_) warm.push_back(body(q.text, false));
    client.Run(warm);
  }
  const size_t per_round = kRoundRequests * kConnections;
  ref_.BeginPhase((n + per_round - 1) / per_round);
  const banks::server::QueryCacheStats cache0 = engine.query_cache_stats();
  const banks::server::PoolStats pool0 = engine.pool().stats();
  std::vector<HttpExchange> ex;
  ex.reserve(n);
  for (size_t start = 0; start < n; start += per_round) {
    std::vector<std::string> round;
    for (size_t i = start; i < n && i < start + per_round; ++i) {
      round.push_back(body(text_of(stream[i].query), stream[i].render));
    }
    const Clock::time_point t0 = Clock::now();
    for (HttpExchange& e : client.Run(round)) ex.push_back(std::move(e));
    if (main) timed_ms_ += MsBetween(t0, Clock::now());
    ref_.Idle(true);
  }
  const banks::server::QueryCacheStats cache1 = engine.query_cache_stats();
  const banks::server::PoolStats pool1 = engine.pool().stats();

  std::vector<bool> first(pool, true);
  std::vector<bool> repeat(n, false);
  for (size_t i = 0; i < n; ++i) {
    ++attempted_;
    repeat[i] = !first[stream[i].query];
    first[stream[i].query] = false;
    if (ex[i].status != 200) {
      ++failed_;  // and fails the check below
      continue;
    }
    if (main) {
      if (ex[i].ttfa_ms >= 0.0) ttfa_ms_.push_back(ex[i].ttfa_ms);
      ttk_ms_.push_back(ex[i].ttk_ms);
      ++completed_;
    }
    if (trace_.enabled()) {
      samples_["net.ttfb_ms"].push_back(ex[i].ttfb_ms);
      samples_["net.bytes"].push_back(static_cast<double>(ex[i].wire_bytes));
      samples_[repeat[i] ? "cache.hit_ttk_ms" : "cache.miss_ttk_ms"].push_back(
          ex[i].ttk_ms);
    }
  }
  if (main) CloseMain();
  if (trace_.enabled()) {
    trace_.Count("pool.queries", static_cast<double>(n));
    trace_.Count("pool.slices", static_cast<double>(pool1.slices - pool0.slices));
    trace_.Count("pool.steals", static_cast<double>(pool1.steals - pool0.steals));
    trace_.Count("pool.publishes",
                 static_cast<double>(pool1.publishes - pool0.publishes));
    trace_.Count("pool.answers_published",
                 static_cast<double>(pool1.answers_published -
                                     pool0.answers_published));
    trace_.Count("cache.hits", static_cast<double>(cache1.hits - cache0.hits));
    trace_.Count("cache.probes",
                 static_cast<double>((cache1.hits + cache1.misses +
                                      cache1.invalidations) -
                                     (cache0.hits + cache0.misses +
                                      cache0.invalidations)));
    trace_.Count("cache.resolution_hits",
                 static_cast<double>(cache1.resolution_hits -
                                     cache0.resolution_hits));
    trace_.Count("cache.resolution_probes",
                 static_cast<double>((cache1.resolution_hits +
                                      cache1.resolution_misses) -
                                     (cache0.resolution_hits +
                                      cache0.resolution_misses)));
    trace_.Count("cache.coalesced",
                 static_cast<double>(cache1.coalesced - cache0.coalesced));

    // Network overhead: HTTP time to the last byte minus an in-process
    // SubmitQuery drain of the same request, both served from the cache
    // (requests whose query was asked before in this stream).
    for (size_t i = 0; i < n; ++i) {
      if (!repeat[i] || ex[i].status != 200) continue;
      const Clock::time_point t0 = Clock::now();
      auto handle =
          engine.SubmitQuery(QueryRequest{.text = text_of(stream[i].query)});
      if (handle.ok()) {
        while (handle.value().Next()) {
        }
      }
      samples_["net.overhead_ms"].push_back(ex[i].ttk_ms -
                                            MsBetween(t0, Clock::now()));
      ref_.Idle(true);
    }
  }

  // Checks: every answer line equals BanksService::AnswerJson over an
  // in-process drain of the same request on the cache-off engine.
  BanksEngine& plain = Plain();
  std::map<size_t, Drained> drained;  // by query; render reuses the trees
  for (size_t i = 0; i < n; ++i) {
    const ServeRequest& r = stream[i];
    auto it = drained.find(r.query);
    if (it == drained.end()) {
      it = drained.emplace(r.query, Drain(plain, QueryRequest{
                                                     .text = text_of(r.query)}))
               .first;
    }
    const Drained& d = it->second;
    std::vector<std::string> lines;
    for (size_t a = 0; a < d.trees.size(); ++a) {
      {
        ScopedSpan span(&trace_, "net.answer_json", i);
        lines.push_back(
            net::BanksService::AnswerJson(plain, d.trees[a], d.ranks[a], r.render));
      }
      if (r.render) {
        ScopedSpan span(&trace_, "browse.render", i);
        plain.Render(d.trees[a]);
      }
    }
    std::string error = CheckServeResponse(ex[i].status, ex[i].body, lines);
    if (!error.empty()) {
      Fail("serve '" + text_of(r.query) + "': " + error);
    }
  }
  if (trace_.enabled()) {
    // Pool scheduling: SubmitQuery to the first answer on the handle,
    // minus OpenSession's time to the first answer, both cache-off.
    plain.pool(banks::server::PoolOptions{.num_workers = 1});
    threads_ = true;
    for (size_t q = 0; q < std::min(pool, kSchedProbes); ++q) {
      const QueryRequest request{.text = text_of(q)};
      Drained direct = Drain(plain, request);
      const Clock::time_point t0 = Clock::now();
      auto handle = plain.SubmitQuery(request);
      if (!handle.ok()) continue;
      const bool any = handle.value().Next().has_value();
      const double pooled = MsBetween(t0, Clock::now());
      while (handle.value().Next()) {
      }
      if (any && direct.ttfa_ms >= 0.0) {
        samples_["pool.sched_ms"].push_back(pooled - direct.ttfa_ms);
      }
      ref_.Idle(true);
    }
  }
  ref_.Mark();
}

// ------------------------------------------------------------------ ingest

void Bench::IngestPhase(size_t bursts, bool main) {
  BanksEngine& engine = Live();
  if (main) {
    for (const GenQuery& q : warmup_) Drain(engine, QueryRequest{.text = q.text});
  }
  ref_.BeginPhase(bursts + 1);  // each calls Idle() once
  const std::vector<GenQuery>& list = overlay_queries_;
  const size_t base = std::min<size_t>(48, list.size());
  size_t next_base = 0;
  size_t next_probe = base;
  std::unordered_set<uint64_t> deleted;
  const banks::server::QueryCacheStats cache0 = engine.query_cache_stats();

  auto run_query = [&](const std::string& text) {
    ++attempted_;
    Drained d = Drain(engine, QueryRequest{.text = text});
    if (!d.ok || OverK(d)) {
      ++failed_;
      std::fprintf(stderr, "failed: ingest query '%s' (%zu answers)\n",
                   text.c_str(), d.trees.size());
      d.ok = false;
      return d;
    }
    RecordQuery(main, d);
    return d;
  };
  auto check_base = [&](const std::string& text, const Drained& d) {
    std::string error =
        CheckAnswers(engine.db(), Tokens(text), d.trees, kK, d.rid_of);
    for (size_t t = 0; error.empty() && t < d.trees.size(); ++t) {
      error = CheckNoDeleted(d.trees[t], d.rid_of, deleted);
    }
    if (!error.empty()) Fail("ingest '" + text + "': " + error);
  };
  auto refreeze = [&]() {
    const Clock::time_point t0 = Clock::now();
    auto stats = engine.Refreeze();
    const double ms = MsBetween(t0, Clock::now());
    if (!stats.ok()) {
      Fail("refreeze failed: " + stats.status().ToString());
      return;
    }
    refreeze_ms_.push_back(ms);
    if (stats.value().snapshot_failed) Fail("epoch file write failed");
    samples_["update.rebuild_ms"].push_back(stats.value().rebuild_ms);
    samples_["snapshot.write_ms"].push_back(stats.value().snapshot_write_ms);
    trace_.Count("update.refreezes", 1);
    trace_.Count("update.merged", stats.value().merged ? 1 : 0);
    std::string error = CheckLiveRows(engine.db(), mutgen_->expected_live());
    if (!error.empty()) Fail("after refreeze: " + error);
  };

  for (size_t b = 0; b < bursts; ++b) {
    MutationGen::Burst burst = mutgen_->Next(kBurstSize);
    const std::vector<banks::Mutation> sent = burst.mutations;
    attempted_ += sent.size();
    const Clock::time_point t0 = Clock::now();
    std::vector<banks::Result<Rid>> results =
        engine.ApplyBatch(std::move(burst.mutations));
    const double ms = MsBetween(t0, Clock::now());
    trace_.Count("update.apply_ms", ms);
    trace_.Count("update.batches", 1);
    size_t acked = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++failed_;
        std::fprintf(stderr, "failed: mutation %zu of a batch: %s\n", i,
                     results[i].status().ToString().c_str());
        continue;
      }
      ++acked;
      trace_.Count("update.mutations", 1);
      log_.push_back(sent[i]);
    }
    batch_rate_.push_back(Ratio(static_cast<double>(acked), ms / 1e3));
    for (size_t i : burst.deletes) {
      if (results[i].ok()) deleted.insert(sent[i].rid.Pack());
    }
    // Fresh tokens: the tuple must be returned right after the batch is
    // acknowledged, before any refreeze.
    for (size_t f = 0; f < burst.fresh.size() && f < kFreshQueriesPerBurst; ++f) {
      const auto& [token, index] = burst.fresh[f];
      if (!results[index].ok()) continue;
      const Rid rid = sent[index].kind == banks::Mutation::Kind::kInsert
                          ? results[index].value()
                          : sent[index].rid;
      Drained d = run_query(token);
      if (!d.ok) continue;
      std::string error = CheckFreshReturned(d.trees, d.rid_of, rid);
      if (!error.empty()) Fail("ingest fresh '" + token + "': " + error);
    }
    for (size_t q = 0; q < kBaseQueriesPerBurst; ++q) {
      const std::string& text = list[next_base++].text;
      if (next_base == base) next_base = 0;
      Drained d = run_query(text);
      if (d.ok) check_base(text, d);
    }
    if ((b + 1) % kRefreezeEvery == 0) {
      // The same base queries over the pending overlay and right after
      // the refreeze; distinct per cycle so neither side is a cache hit.
      std::vector<std::string> probes;
      for (size_t p = 0; p < kOverlayProbes; ++p) {
        probes.push_back(list[next_probe++ % list.size()].text);
      }
      for (const std::string& text : probes) {
        Drained d = run_query(text);
        if (d.ok) check_base(text, d);
        trace_.Count("update.overlay_pending_ms", d.ttk_ms);
      }
      refreeze();
      for (const std::string& text : probes) {
        Drained d = run_query(text);
        if (d.ok) check_base(text, d);
        trace_.Count("update.overlay_after_ms", d.ttk_ms);
      }
    }
    ref_.Idle(threads_);
  }
  if (engine.pending_mutations() > 0) refreeze();
  ref_.Idle(threads_);
  if (main) CloseMain();
  const banks::server::QueryCacheStats cache1 = engine.query_cache_stats();
  trace_.Count("cache.invalidations",
               static_cast<double>(cache1.invalidations - cache0.invalidations));
  std::error_code ec;
  snapshot_bytes_ = static_cast<double>(
      std::filesystem::file_size(snapshot_path_, ec));
  if (ec) Fail("no epoch file at " + snapshot_path_);
}

// Restarts from the last epoch file, each from a database already in
// memory: FromSnapshot plus the first answer of a probe query. They run
// after the bursts: a restart's regenerated database and engine, made and
// freed between bursts, slowed the queries and refreezes after it by a
// third. Then the end checks of the ingest work.
void Bench::RestartPhase(bool main) {
  BanksEngine& engine = Live();
  const std::vector<GenQuery>& list = overlay_queries_;
  BanksOptions restart_options = EngineOptions(true);
  restart_options.update.snapshot_path.clear();
  // A fixed cheap probe ("mohan": three single-node answers), so the
  // restart time is not the cost of whichever query the seed drew.
  const std::string probe = "mohan";
  std::unique_ptr<BanksEngine> reopened;
  ref_.BeginPhase(kRestarts);
  for (size_t r = 0; r < kRestarts; ++r) {
    Database db = Regenerate();
    ref_.Mark();
    const Clock::time_point t0 = Clock::now();
    auto restarted =
        BanksEngine::FromSnapshot(std::move(db), snapshot_path_, restart_options);
    const Clock::time_point t1 = Clock::now();
    if (!restarted.ok()) {
      Fail("restart failed: " + restarted.status().ToString());
      break;
    }
    auto session = restarted.value()->OpenSession(QueryRequest{.text = probe});
    if (session.ok()) session.value().Next();
    restart_ms_.push_back(MsBetween(t0, Clock::now()));
    samples_["snapshot.open_ms"].push_back(MsBetween(t0, t1));
    reopened = std::move(restarted).value();
    ref_.Idle(threads_);
  }
  if (main) peak_rss_mb_ = PeakRssMb();

  // End checks: the live engine, a fresh engine built from a regenerated
  // database with the same mutations replayed (the full-rebuild path), and
  // the engine reopened from the epoch file answer a fixed probe set alike.
  plain_ = std::make_unique<BanksEngine>(Regenerate(), EngineOptions(false));
  std::string error = CheckLiveRows(engine.db(), mutgen_->expected_live());
  if (!error.empty()) Fail("at the end: " + error);
  std::vector<std::string> probes;
  for (size_t i = 0; i < kEndProbes && i < list.size(); ++i) {
    probes.push_back(list[i].text);
  }
  for (const banks::Mutation& m : log_) {
    if (probes.size() >= 2 * kEndProbes) break;
    if (m.kind == banks::Mutation::Kind::kInsert &&
        m.table == banks::kPaperTable) {
      probes.push_back(Tokens(m.tuple.at(1).AsString()).front());
    }
  }
  auto signature = [](const Drained& d) {
    std::string s;
    for (const ConnectionTree& t : d.trees) s += AnswerSignature(t, d.rid_of) + "\n";
    return s;
  };
  for (const std::string& text : probes) {
    const std::string live = signature(Drain(engine, QueryRequest{.text = text}));
    if (live != signature(Drain(*plain_, QueryRequest{.text = text}))) {
      Fail("probe '" + text + "': live engine differs from a full rebuild");
    }
    if (reopened != nullptr &&
        live != signature(Drain(*reopened, QueryRequest{.text = text}))) {
      Fail("probe '" + text + "': engine reopened from the epoch file differs");
    }
  }
  ref_.Mark();
}

// Index and graph build times, on the cache-off engine's database.
void Bench::LayerBuilds() {
  const Database& db = Plain().db();
  const banks::GraphBuildOptions graph_options = Plain().options().graph;
  for (int i = 0; i < 3; ++i) {
    {
      banks::InvertedIndex index;
      ScopedSpan span(&trace_, "index.build", i);
      index.Build(db);
    }
    ref_.Idle(threads_);
    {
      ScopedSpan span(&trace_, "graph.build", i);
      banks::DataGraph dg = banks::BuildDataGraph(db, graph_options);
    }
    ref_.Idle(threads_);
  }
}

// ------------------------------------------------------------------ report

int Bench::Run() {
  if (opt_.workload != "search" && opt_.workload != "serve" &&
      opt_.workload != "ingest") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt_.workload.c_str());
    return 2;
  }
  snapshot_dir_ = opt_.out_dir + "/epochs-" + opt_.workload + "-" +
                  std::to_string(opt_.seed) + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(snapshot_dir_);
  snapshot_path_ = snapshot_dir_ + "/epoch.snap";

  const Clock::time_point start = Clock::now();
  {
    Database db = banks::GenerateDblp(PaperScaleConfig()).db;
    warmup_ = GenerateQueries(db, kWarmupQuerySeed, kWarmupQueries, {});
    const size_t n = std::max<size_t>(
        {static_cast<size_t>(opt_.seconds * kSearchQueriesPerSecond),
         static_cast<size_t>(opt_.seconds * kServeRequestsPerSecond /
                             kServePoolDivisor),
         kEpilogueRequests / 2, 64});
    queries_ = GenerateQueries(db, kQuerySeed, n, warmup_);
    for (const GenQuery& q : queries_) {
      if (q.cls != "anecdote" && q.cls != "three") overlay_queries_.push_back(q);
    }
    mutgen_ = std::make_unique<MutationGen>(db, opt_.seed * 2 + 3);
    std::fprintf(stderr, "inputs: %.2f s\n", MsBetween(start, Clock::now()) / 1e3);
    ref_.Mark();
    // setup_s: the generated database to a serving-ready engine.
    const Clock::time_point t0 = Clock::now();
    if (opt_.workload == "search") {
      plain_ = std::make_unique<BanksEngine>(std::move(db), EngineOptions(false));
    } else {
      live_ = std::make_unique<BanksEngine>(std::move(db), EngineOptions(true));
      if (opt_.workload == "serve") StartServer();
    }
    setup_ms_ = MsBetween(t0, Clock::now());
  }
  ref_.Idle(threads_);

  const size_t search_n =
      std::max<size_t>(1, static_cast<size_t>(opt_.seconds * kSearchQueriesPerSecond));
  const size_t serve_n =
      std::max<size_t>(kConnections, static_cast<size_t>(opt_.seconds * kServeRequestsPerSecond));
  const size_t ingest_n = std::max<size_t>(
      kRefreezeEvery, static_cast<size_t>(opt_.seconds * kIngestBurstsPerSecond));
  Note("setup", 1.0);
  // The main phase, then the other two workloads as epilogues.
  std::vector<std::string> phases = {opt_.workload};
  for (const char* w : {"search", "serve", "ingest"}) {
    if (opt_.workload != w) phases.push_back(w);
  }
  for (const std::string& w : phases) {
    const bool main = w == opt_.workload;
    // Each phase starts from a trimmed heap: freed memory goes back to the
    // system, so a phase does not inherit the free lists that the one
    // before it fragmented (ApplyBatch after the search phase ran up to a
    // third slower, on the same machine speed, without this).
    malloc_trim(0);
    if (w == "search") {
      Normalised("search", main, [&] {
        SearchPhase(main ? search_n : kEpilogueQueries, main);
      });
    } else if (w == "serve") {
      Normalised("serve", main, [&] {
        ServePhase(main ? serve_n : kEpilogueRequests, main);
      });
    } else {
      Normalised("ingest", main, [&] {
        IngestPhase(main ? ingest_n : kEpilogueBursts, main);
      });
      // The restarts take a factor of their own: taken over the bursts and
      // the restarts together, the factor followed neither (restart_ms in
      // the `search` and `serve` epilogues spread by up to 0.27 over ten
      // runs, and the ingest queries' times by up to 0.17).
      Normalised("restarts", false, [&] { RestartPhase(main); });
    }
  }
  if (trace_.enabled()) LayerBuilds();
  if (server_ != nullptr) server_->Stop();
  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir_, ec);
  return Report();
}

int Bench::Report() {
  const double f = ref_.Factor();
  if (ref_.GuardTripped()) {
    Fail("reference guard: " + std::to_string(ref_.guard_violations()) +
         " kernel slices ran while program threads used CPU (max excess " +
         std::to_string(ref_.max_excess_cpu_ms()) + " ms)");
  }
  auto p = [](const std::vector<double>& v, double q) { return Quantile(v, q); };
  std::vector<std::pair<std::string, std::pair<double, const char*>>> m;
  auto put = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, {value, unit}});
  };
  const double qps = Ratio(static_cast<double>(completed_), timed_ms_ / 1e3);
  if (!trace_.enabled()) {
    // Normalised already, each by its phase's factor.
    put("setup_s", setup_ms_ / 1e3, "s");
    put("ttfa_ms_p50", p(ttfa_ms_, 0.5), "ms");
    put("ttfa_ms_p90", p(ttfa_ms_, 0.9), "ms");
    put("ttk_ms_p50", p(ttk_ms_, 0.5), "ms");
    put("ttk_ms_p90", p(ttk_ms_, 0.9), "ms");
    put("qps", qps, "queries/s");
    // Batch rates, 10%-trimmed: one batch takes about a millisecond, so a
    // sum over batches would follow the few that a stall hit, and batches
    // fall into cost classes by how many came since the last refreeze.
    put("ingest_mutations_per_s", TrimmedMean(batch_rate_, 0.1),
        "mutations/s");
    put("refreeze_ms_p50", p(refreeze_ms_, 0.5), "ms");
    put("restart_ms", p(restart_ms_, 0.5), "ms");
    put("peak_rss_mb", peak_rss_mb_, "MiB");
    put("snapshot_mb", snapshot_bytes_ / (1024.0 * 1024.0), "MiB");
  } else {
    const Trace& t = trace_;
    put("index.resolve_us_p50", p(t.Durations("index.resolve"), 0.5) * 1e3 * f, "us");
    put("index.build_ms", p(t.Durations("index.build"), 0.5) * f, "ms");
    put("graph.build_ms", p(t.Durations("graph.build"), 0.5) * f, "ms");
    put("core.open_us_p50", p(samples_["core.open_ms"], 0.5) * 1e3 * f, "us");
    for (SearchStrategy s : kStrategies) {
      const std::string c = std::string("core.") + banks::SearchStrategyName(s) + ".";
      put(c + "ns_per_visit",
          Ratio(t.Counter(c + "drain_ms") * 1e6, t.Counter(c + "visits")) * f, "ns");
      put(c + "visits_per_query", Ratio(t.Counter(c + "visits"), t.Counter(c + "queries")), "count");
      put(c + "visits_to_first_answer",
          Ratio(t.Counter(c + "visits_to_first"), t.Counter(c + "answered")), "count");
      put(c + "answers_per_query", Ratio(t.Counter(c + "answers"), t.Counter(c + "queries")), "count");
    }
    put("core.trees_per_answer", Ratio(t.Counter("core.trees"), t.Counter("core.answers")), "ratio");
    put("core.duplicates_per_answer",
        Ratio(t.Counter("core.duplicates"), t.Counter("core.answers")), "ratio");
    put("core.iterators_per_query", Ratio(t.Counter("core.iterators"), t.Counter("core.queries")), "count");
    put("core.forward.ttfa_share",
        Ratio(t.Counter("core.forward.ttfa_ms"), t.Counter("core.forward.ttk_ms")), "ratio");
    const std::vector<double> render = t.Durations("browse.render");
    put("browse.render_us_per_answer",
        Ratio(Sum(render) * 1e3, static_cast<double>(render.size())) * f, "us");
    put("server.pool.sched_ms_p50", p(samples_["pool.sched_ms"], 0.5) * f, "ms");
    put("server.pool.slices_per_query", Ratio(t.Counter("pool.slices"), t.Counter("pool.queries")), "count");
    put("server.pool.steals_per_query", Ratio(t.Counter("pool.steals"), t.Counter("pool.queries")), "count");
    put("server.pool.answers_per_publish",
        Ratio(t.Counter("pool.answers_published"), t.Counter("pool.publishes")), "ratio");
    put("server.cache.hit_ratio", Ratio(t.Counter("cache.hits"), t.Counter("cache.probes")), "ratio");
    put("server.cache.resolution_hit_ratio",
        Ratio(t.Counter("cache.resolution_hits"), t.Counter("cache.resolution_probes")), "ratio");
    put("server.cache.coalesced", t.Counter("cache.coalesced"), "count");
    put("server.cache.hit_ttk_ms_p50", p(samples_["cache.hit_ttk_ms"], 0.5) * f, "ms");
    put("server.cache.miss_ttk_ms_p50", p(samples_["cache.miss_ttk_ms"], 0.5) * f, "ms");
    put("server.cache.invalidations_per_batch",
        Ratio(t.Counter("cache.invalidations"), t.Counter("update.batches")), "ratio");
    put("net.ttfb_ms_p50", p(samples_["net.ttfb_ms"], 0.5) * f, "ms");
    const std::vector<double> json = t.Durations("net.answer_json");
    put("net.answer_json_us_per_answer",
        Ratio(Sum(json) * 1e3, static_cast<double>(json.size())) * f, "us");
    put("net.overhead_ms_p50", p(samples_["net.overhead_ms"], 0.5) * f, "ms");
    put("net.bytes_per_response", p(samples_["net.bytes"], 0.5), "bytes");
    put("update.apply_us_per_mutation",
        Ratio(t.Counter("update.apply_ms") * 1e3, t.Counter("update.mutations")) * f, "us");
    put("update.rebuild_ms_p50", p(samples_["update.rebuild_ms"], 0.5) * f, "ms");
    put("update.merged_share", Ratio(t.Counter("update.merged"), t.Counter("update.refreezes")), "ratio");
    put("update.overlay_ttk_ratio",
        Ratio(t.Counter("update.overlay_pending_ms"), t.Counter("update.overlay_after_ms")), "ratio");
    put("snapshot.write_ms_p50", p(samples_["snapshot.write_ms"], 0.5) * f, "ms");
    put("snapshot.open_ms_p50", p(samples_["snapshot.open_ms"], 0.5) * f, "ms");
    // The untraced run's ttk, for trace.overhead (run.py divides).
    put("trace.ttk_ms_p50", p(ttk_ms_, 0.5), "ms");
    const std::string path = opt_.out_dir + "/trace-" + opt_.workload + "-" +
                             std::to_string(opt_.seed) + ".jsonl";
    if (!trace_.WriteJsonl(path)) Fail("cannot write " + path);
  }

  for (const std::string& e : errors_) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  // Raw figures of the main phase, for reference only (not metrics).
  const double mf = main_factor_;
  std::printf(
      "raw: {\"main_factor\": %.6f, \"run_factor\": %.6f, "
      "\"kernel_slices\": %zu, \"mean_slice_ms\": %.4f, "
      "\"dropped_slices\": %zu, \"max_guard_excess_ms\": %.4f, "
      "\"setup_s\": %.6f, \"ttfa_ms_p50\": %.6f, \"ttk_ms_p50\": %.6f, "
      "\"ttk_ms_p90\": %.6f, \"qps\": %.4f, \"samples\": %zu}\n",
      mf, f, ref_.slices(), ref_.mean_slice_ms(), ref_.guard_violations(),
      ref_.max_excess_cpu_ms(), setup_ms_ / 1e3 / mf, p(ttfa_ms_, 0.5) / mf,
      p(ttk_ms_, 0.5) / mf, p(ttk_ms_, 0.9) / mf, qps * mf, ttk_ms_.size());
  std::string out = "{\"correct\": ";
  out += errors_.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.first,
                  m[i].second.second);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return errors_.empty() ? 0 : 1;
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  PinToCpus(static_cast<int>(kConnections));
  Bench bench(options);
  return bench.Run();
}

}  // namespace perfbench
