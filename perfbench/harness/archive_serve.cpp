// archive_serve — the durable store behind ps::StoreServer, read and
// written at once.
//
// The store runs the archive's own configuration: the default StoreConfig
// a durable MonitoringSystem archive builds (seal at 256 documents, tiered
// compaction at fan-in 8, unbounded block cache), maintained once per
// second as the archive's maintenance tick does. One second of load is a
// tick: kAppendRate appends — the rate fabric16's 16 sites archive at —
// one maintain(), and kQueryRate queries, round-robin over the four kinds
// real callers send: newest-first latest value (MaDDash), a dashboard
// window anchored to the newest document, a term search on flow.dst_ip
// (Analytics::throughput_trend) and a whole-series aggregate (quickstart,
// durable_archive). Queries go through the async API, 2 reader threads.
//
// Plain run: repetitions of a fixed batch, each on a freshly preloaded
// store (the preload is the set-up). A batch is compact_fanin ticks of
// load, so it seals compact_fanin segments and runs one tiered
// compaction. Its queries run closed-loop, one in flight per reader
// thread; the writer's appends and maintain() calls run on the issuing
// thread, interleaved in proportion. run_s is the batch's host time.
//
// Traced run: the batch plain and with the store layer's spans, then an
// open-loop phase for the latency figures: queries at kQueryRate and a
// writer thread at kAppendRate, every query and append timed from its
// scheduled time, so waiting behind a slow query, a seal or a compaction
// is charged to the caller.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <variant>

#include "harness/common.hpp"
#include "psonar/store_server.hpp"
#include "store/store.hpp"

namespace perfbench {

namespace {

using p4s::ps::ArchiverAggregation;
using p4s::ps::ArchiverQuery;
using p4s::util::Json;

constexpr std::uint64_t kPreloadDocs = 24'000;
/// Appended after the preload's compaction and left in the memtable.
constexpr std::uint64_t kUnsealedDocs = 256;
/// Simulated spacing of one series' documents (4 reports per second).
constexpr std::int64_t kSpacingNs = 250'000'000;
constexpr int kDstIps = 64;
constexpr int kSites = 8;
/// Documents archived per second: fabric16 (seed 1) archives 10 092
/// documents in its 8 simulated seconds.
constexpr std::uint64_t kAppendRate = 1260;
/// ArchiveConfig::maintenance_interval's default.
constexpr auto kTick = std::chrono::seconds(1);
/// About half the closed-loop query rate of the batch (batch_qps).
constexpr std::uint64_t kQueryRate = 1200;
/// Dashboard window width (anchored to the newest document).
constexpr std::int64_t kWindowNs = 10'000'000'000;
constexpr std::size_t kReaders = 2;
/// Plain runs repeat the batch at least this often.
constexpr int kMinBatches = 3;

/// What a durable MonitoringSystem archive builds with the serving
/// section's defaults.
p4s::store::StoreConfig store_config() { return p4s::store::StoreConfig{}; }

std::string dst_ip(std::int64_t k) {
  return "10.1." + std::to_string(k / 8) + "." + std::to_string(10 + k % 8);
}

/// The seeded document stream: document i is a pure function of the
/// seed and i (the generator runs in sequence order).
class DocStream {
 public:
  explicit DocStream(std::uint64_t seed) : rng_(seed) {}

  Json next() {
    const auto seq = static_cast<std::int64_t>(next_seq_++);
    const std::int64_t ts = seq * kSpacingNs;
    Json flow = Json::object();
    flow["src_ip"] = "10.0.0.10";
    flow["dst_ip"] = dst_ip(rng_.uniform(0, kDstIps));
    flow["src_port"] = static_cast<std::int64_t>(40000 + rng_.uniform(0, 1000));
    flow["dst_port"] = static_cast<std::int64_t>(5201);
    flow["protocol"] = static_cast<std::int64_t>(6);
    Json doc = Json::object();
    doc["report"] = "throughput";
    doc["ts_ns"] = ts;
    doc["throughput_bps"] = 50'000'000 + rng_.uniform(0, 200'000'000);
    doc["flow"] = flow;
    doc["switch_id"] = "site-" + std::to_string(rng_.uniform(0, kSites));
    doc["@timestamp"] = ts;
    doc["@seq"] = seq;
    doc["@pipeline"] = "p4sonar";
    return doc;
  }
  std::uint64_t produced() const { return next_seq_; }

 private:
  SeedRng rng_;
  std::uint64_t next_seq_ = 0;
};

struct Preloaded {
  std::unique_ptr<p4s::store::Store> store;
  DocStream docs;
};

Preloaded preload(const std::string& dir, std::uint64_t seed) {
  std::filesystem::remove_all(dir);
  Preloaded out{std::make_unique<p4s::store::Store>(dir, store_config()),
                DocStream(seed)};
  for (std::uint64_t i = 0; i < kPreloadDocs; ++i) {
    out.store->append(kThroughputIndex, out.docs.next());
    if ((i + 1) % 2048 == 0) out.store->maintain();
  }
  // Start every phase from the same shape: one compacted segment plus a
  // memtable holding the newest documents, as in a live archive (the
  // dashboard window then never reaches into the big segment), and a
  // cache warmed by one query of each kind.
  out.store->seal_all();
  out.store->compact(kThroughputIndex);
  for (std::uint64_t i = 0; i < kUnsealedDocs; ++i) {
    out.store->append(kThroughputIndex, out.docs.next());
  }
  out.store->flush();
  const p4s::ps::StoreServer warm(*out.store, p4s::ps::StoreServerConfig{0});
  ArchiverQuery term;
  term.terms["flow.dst_ip"] = Json(dst_ip(0));
  (void)warm.latest_value(kThroughputIndex, "throughput_bps");
  (void)warm.search(kThroughputIndex, term);
  (void)warm.aggregate(kThroughputIndex, "throughput_bps");
  return out;
}

/// What one phase (a batch or the open-loop phase) observed.
struct Phase {
  Latencies lat;
  std::vector<double> query_lateness_ms;
  std::vector<double> append_lateness_ms;
  double run_s = 0.0;  // first operation to last completion
  std::uint64_t queries = 0;
  std::uint64_t appended = 0;
  std::uint64_t compactions = 0;
  // Writer spans (traced phases); each query is its own latency record.
  SpanStats append_spans;
  SpanStats maintain_spans;
};

enum Kind { kLatest = 0, kRecent = 1, kTerm = 2, kAggregate = 3 };

struct InFlight {
  Kind kind = kLatest;
  OpenLoopOp op;
  std::variant<std::future<std::optional<Json>>,
               std::future<std::vector<Json>>,
               std::future<ArchiverAggregation>>
      result;
  std::string ip;
  std::uint64_t floor = 0;  // largest count of queries done before this was sent
};

/// One phase over one store. The calling thread issues the queries;
/// kReaders waiter threads each block on the oldest unclaimed future —
/// with as many waiters as reader threads, every running query has a
/// waiter, so completions are observed when they happen without a
/// spinning poller competing with the readers for cores.
class ServePhase {
 public:
  ServePhase(p4s::store::Store& store, const p4s::ps::StoreServer& server,
             DocStream& docs, Result& result, bool traced)
      : store_(store),
        server_(server),
        docs_(docs),
        result_(result),
        traced_(traced),
        newest_ts_(static_cast<std::int64_t>(docs.produced() - 1) *
                   kSpacingNs) {}

  /// The fixed batch: `ticks` ticks of load, queries closed-loop, the
  /// writer's share of the batch so far run before each query is sent.
  Phase run_batch(std::uint64_t ticks) {
    const std::uint64_t n_queries = ticks * kQueryRate;
    const std::uint64_t n_appends = ticks * kAppendRate;
    return serve([&] {
      std::uint64_t appended = 0;
      auto write_until = [&](std::uint64_t target) {
        for (; appended < target; ++appended) {
          append(Clock::now());
          if ((appended + 1) % kAppendRate == 0) maintain();
        }
      };
      for (std::uint64_t i = 0; i < n_queries; ++i) {
        write_until(i * n_appends / n_queries);
        {
          std::unique_lock lock(mu_);
          cv_.wait(lock, [&] { return outstanding_ < kReaders; });
        }
        send(i, Clock::now());
      }
      write_until(n_appends);
    });
  }

  /// The open-loop phase: queries at kQueryRate from the calling thread,
  /// a writer thread appending at kAppendRate and calling maintain()
  /// every tick, each operation due on its schedule whatever the others
  /// do.
  Phase run_open(double seconds) {
    const auto start = Clock::now() + std::chrono::milliseconds(20);
    const auto n_queries = static_cast<std::uint64_t>(seconds * kQueryRate);
    const auto n_appends = static_cast<std::uint64_t>(seconds * kAppendRate);
    const auto at_rate = [start](std::uint64_t per_s) {
      return OpenLoopSchedule(
          start, std::chrono::nanoseconds(
                     static_cast<std::int64_t>(1e9 / static_cast<double>(per_s))));
    };
    return serve([&] {
      std::jthread writer([&] {
        const OpenLoopSchedule appends = at_rate(kAppendRate);
        auto next_tick = start + kTick;
        for (std::uint64_t i = 0; i < n_appends;) {
          const auto due = appends.due(i);
          if (next_tick <= due) {
            wait_until(next_tick);
            maintain();
            next_tick += kTick;
            continue;
          }
          wait_until(due);
          append(due);
          ++i;
        }
      });
      const OpenLoopSchedule queries = at_rate(kQueryRate);
      for (std::uint64_t i = 0; i < n_queries; ++i) {
        wait_until(queries.due(i));
        send(i, queries.due(i));
      }
    });  // the writer joins before the waiters stop
  }

 private:
  /// Run `issue` on this thread with the waiters running; the phase ends
  /// when every query it sent has completed.
  template <typename Issue>
  Phase serve(Issue&& issue) {
    const auto compactions_before = store_.stats().compactions;
    const auto start = Clock::now();
    std::vector<Phase> seen(kReaders);
    {
      std::vector<std::jthread> waiters;
      for (std::size_t k = 0; k < kReaders; ++k) {
        waiters.emplace_back([this, &seen, k] { seen[k] = wait_loop(); });
      }
      std::exception_ptr failure;
      try {
        issue();
      } catch (...) {
        failure = std::current_exception();
      }
      {
        std::lock_guard lock(mu_);
        done_issuing_ = true;
      }
      cv_.notify_all();
      waiters.clear();  // joins them
      if (failure) std::rethrow_exception(failure);
    }
    phase_.run_s = seconds_since(start);
    for (Phase& w : seen) {
      auto append_all = [](std::vector<double>& to,
                           const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append_all(phase_.lat.latest_ms, w.lat.latest_ms);
      append_all(phase_.lat.recent_ms, w.lat.recent_ms);
      append_all(phase_.lat.term_ms, w.lat.term_ms);
      append_all(phase_.lat.aggregate_ms, w.lat.aggregate_ms);
      append_all(phase_.query_lateness_ms, w.query_lateness_ms);
      phase_.queries += w.queries;
    }
    for (const OpenLoopOp& op : append_ops_) {
      phase_.lat.append_ms.push_back(op.latency_ms());
      phase_.append_lateness_ms.push_back(op.lateness_ms());
    }
    phase_.appended = append_ops_.size();
    phase_.compactions = store_.stats().compactions - compactions_before;
    result_.attempted += append_ops_.size();
    for (const std::string& e : writer_errors_) result_.check(false, e);
    return std::move(phase_);
  }

  // ---- writer (the issuing thread in a batch, its own thread open-loop)
  void append(Clock::time_point due) {
    OpenLoopOp op{due, Clock::now(), {}};
    const Json doc = docs_.next();
    try {
      store_.append(kThroughputIndex, doc);
    } catch (const std::exception& e) {
      writer_errors_.push_back(std::string("append failed: ") + e.what());
    }
    op.done = Clock::now();
    newest_ts_.store(doc.at("ts_ns").as_int(), std::memory_order_release);
    if (traced_) {
      phase_.append_spans.add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(op.done -
                                                               op.sent)
              .count());
    }
    append_ops_.push_back(op);
  }

  void maintain() {
    const std::int64_t t0 = now_ns();
    try {
      store_.maintain();
    } catch (const std::exception& e) {
      writer_errors_.push_back(std::string("maintain failed: ") + e.what());
    }
    if (traced_) phase_.maintain_spans.add(now_ns() - t0);
  }

  // ---- queries -----------------------------------------------------------
  void send(std::uint64_t i, Clock::time_point due) {
    InFlight q = submit(i, due);
    {
      std::lock_guard lock(mu_);
      queue_.push_back(std::move(q));
      ++outstanding_;
    }
    cv_.notify_all();
  }

  InFlight submit(std::uint64_t i, Clock::time_point due) {
    InFlight q;
    q.kind = static_cast<Kind>(i % 4);
    q.op.due = due;
    switch (q.kind) {
      case kLatest:
        q.op.sent = Clock::now();
        q.result = server_.submit_latest(kThroughputIndex, "throughput_bps");
        break;
      case kRecent: {
        const std::int64_t newest = newest_ts_.load(std::memory_order_acquire);
        ArchiverQuery window;
        window.range_field = "ts_ns";
        window.range_min = static_cast<double>(newest - kWindowNs);
        window.range_max = static_cast<double>(newest);
        q.op.sent = Clock::now();
        q.result = server_.submit_search(kThroughputIndex, window);
        break;
      }
      case kTerm: {
        q.ip = dst_ip(static_cast<std::int64_t>((i / 4) % kDstIps));
        {
          std::lock_guard lock(mu_);
          q.floor = term_seen_[q.ip];
        }
        ArchiverQuery term;
        term.terms["flow.dst_ip"] = Json(q.ip);
        q.op.sent = Clock::now();
        q.result = server_.submit_search(kThroughputIndex, term);
        break;
      }
      case kAggregate: {
        {
          std::lock_guard lock(mu_);
          q.floor = aggregate_seen_;
        }
        q.op.sent = Clock::now();
        q.result = server_.submit_aggregate(kThroughputIndex, "throughput_bps");
        break;
      }
    }
    return q;
  }

  // ---- waiter threads ---------------------------------------------------
  Phase wait_loop() {
    Phase seen;
    while (true) {
      InFlight q;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return !queue_.empty() || done_issuing_; });
        if (queue_.empty()) break;
        q = std::move(queue_.front());
        queue_.pop_front();
      }
      std::visit([](auto& f) { f.wait(); }, q.result);
      q.op.done = Clock::now();
      complete(q, seen);
      {
        std::lock_guard lock(mu_);
        --outstanding_;
      }
      cv_.notify_all();
    }
    return seen;
  }

  void complete(InFlight& q, Phase& seen) {
    bool ok = false;
    std::string what;
    std::uint64_t count = 0;
    try {
      switch (q.kind) {
        case kLatest: {
          const auto v = std::get<0>(q.result).get();
          ok = v.has_value() && v->is_number();
          what = "latest: no value";
          seen.lat.latest_ms.push_back(q.op.latency_ms());
          break;
        }
        case kRecent: {
          // The window holds one document per kSpacingNs of simulated
          // time; its newest document is always visible.
          count = std::get<1>(q.result).get().size();
          ok = count > 0 && count <= kWindowNs / kSpacingNs + 1;
          what = "recent: window holds " + std::to_string(count) + " docs";
          seen.lat.recent_ms.push_back(q.op.latency_ms());
          break;
        }
        case kTerm: {
          count = std::get<1>(q.result).get().size();
          ok = count >= q.floor;
          what = "term " + q.ip + ": count shrank to " +
                 std::to_string(count) + " from " + std::to_string(q.floor);
          seen.lat.term_ms.push_back(q.op.latency_ms());
          break;
        }
        case kAggregate: {
          count = std::get<2>(q.result).get().count;
          ok = count >= q.floor && count >= kPreloadDocs + kUnsealedDocs;
          what = "aggregate: count shrank to " + std::to_string(count);
          seen.lat.aggregate_ms.push_back(q.op.latency_ms());
          break;
        }
      }
    } catch (const std::exception& e) {
      what = std::string("query failed: ") + e.what();
    }
    seen.query_lateness_ms.push_back(q.op.lateness_ms());
    ++seen.queries;
    std::lock_guard lock(mu_);
    ++result_.attempted;
    result_.check(ok, what);
    if (q.kind == kTerm) {
      term_seen_[q.ip] = std::max(term_seen_[q.ip], count);
    } else if (q.kind == kAggregate) {
      aggregate_seen_ = std::max(aggregate_seen_, count);
    }
  }

  p4s::store::Store& store_;
  const p4s::ps::StoreServer& server_;
  DocStream& docs_;
  Result& result_;
  bool traced_;
  Phase phase_;
  std::atomic<std::int64_t> newest_ts_;
  // Writer only until the phase ends.
  std::vector<OpenLoopOp> append_ops_;
  std::vector<std::string> writer_errors_;

  std::mutex mu_;  // guards everything below and result_ while running
  std::condition_variable cv_;
  std::deque<InFlight> queue_;
  std::size_t outstanding_ = 0;  // sent, not yet completed
  bool done_issuing_ = false;
  std::map<std::string, std::uint64_t> term_seen_;
  std::uint64_t aggregate_seen_ = 0;
};

/// One phase on a fresh store: the timed preload (a set-up sample), the
/// phase `serve` runs, then the store's checks.
struct Served {
  double setup_s = 0.0;
  Phase phase;
  p4s::store::StoreStats stats;
};

template <typename Serve>
Served on_fresh_store(const Options& options, int index, bool traced,
                      Result& result, Serve&& serve) {
  const std::string dir =
      options.workdir + "/archive_serve-" + std::to_string(index);
  Served out;
  const auto start = Clock::now();
  Preloaded loaded = preload(dir, options.seed);
  out.setup_s = seconds_since(start);
  auto& store = *loaded.store;
  {
    const p4s::ps::StoreServer server(store,
                                      p4s::ps::StoreServerConfig{kReaders});
    ServePhase phase(store, server, loaded.docs, result, traced);
    out.phase = serve(phase);
  }  // stops the reader threads before the store is checked and closed

  store.flush();
  store.seal_all();
  const std::uint64_t expected =
      kPreloadDocs + kUnsealedDocs + out.phase.appended;
  result.check(store.doc_count(kThroughputIndex) == expected,
               "store holds " +
                   std::to_string(store.doc_count(kThroughputIndex)) +
                   " docs, expected preload + appended = " +
                   std::to_string(expected));
  result.check(p4s::store::Store::verify(dir).ok,
               "Store::verify reports corruption");
  out.stats = store.stats();
  loaded.store.reset();
  std::filesystem::remove_all(dir);
  return out;
}

double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 99);
}

}  // namespace

Result run_archive_serve(const Options& options) {
  Result result;
  const p4s::store::StoreConfig config = store_config();
  // One tiered compaction per batch.
  const std::uint64_t batch_ticks = config.compact_fanin;
  result.info["config_hash"] = config_hash(
      "archive_serve preload=" + std::to_string(kPreloadDocs) +
      " unsealed=" + std::to_string(kUnsealedDocs) +
      " spacing_ns=" + std::to_string(kSpacingNs) +
      " dst_ips=" + std::to_string(kDstIps) +
      " query_rate=" + std::to_string(kQueryRate) +
      " append_rate=" + std::to_string(kAppendRate) +
      " tick_ms=" +
      std::to_string(
          std::chrono::duration_cast<std::chrono::milliseconds>(kTick)
              .count()) +
      " batch_ticks=" + std::to_string(batch_ticks) +
      " readers=" + std::to_string(kReaders) +
      " seal_min_docs=" + std::to_string(config.seal_min_docs) +
      " compact_fanin=" + std::to_string(config.compact_fanin) +
      " cache_bytes=" + std::to_string(config.cache_bytes) +
      " seed=" + std::to_string(options.seed));

  // Batches fill the budget of a plain run. A traced run alternates
  // plain and traced batches in the first half, so the tracing overhead
  // is measured on the same work, and serves open-loop in the second.
  const double batch_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  RepBudget budget(batch_budget, options.trace ? 2 : kMinBatches);
  std::vector<double> setup_s;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> batch_qps;
  Served traced_batch;
  int index = 0;
  while (budget.more()) {
    const auto rep_start = Clock::now();
    const bool traced = options.trace && budget.reps() % 2 == 1;
    Served rep = on_fresh_store(
        options, index++, traced, result,
        [&](ServePhase& phase) { return phase.run_batch(batch_ticks); });
    budget.done(seconds_since(rep_start));
    setup_s.push_back(rep.setup_s);
    (traced ? traced_s : plain_s).push_back(rep.phase.run_s);
    batch_qps.push_back(static_cast<double>(rep.phase.queries) /
                        rep.phase.run_s);
    result.check(rep.phase.queries == batch_ticks * kQueryRate,
                 "batch completed " + std::to_string(rep.phase.queries) +
                     " queries");
    result.info["batch_compactions"] = std::to_string(rep.phase.compactions);
    if (traced) traced_batch = std::move(rep);
  }
  result.info["reps"] = std::to_string(budget.reps());
  result.extra["batch_qps"] = {median(batch_qps), "1/s"};

  if (!options.trace) {
    result.e2e["setup_s"] = {median(setup_s), "s"};
    result.e2e["run_s"] = {median(plain_s), "s"};
    return result;
  }

  Served open = on_fresh_store(
      options, index++, false, result,
      [&](ServePhase& phase) { return phase.run_open(options.seconds / 2); });
  add_latency_metrics(open.phase.lat, result);

  auto& L = result.layers;
  const Phase& batch = traced_batch.phase;
  const auto& stats = traced_batch.stats;
  L["store.append_ns"] = {batch.append_spans.mean_ns(), "ns"};
  L["store.maintain_ms"] = {batch.maintain_spans.mean_ns() * 1e-6, "ms"};
  const auto lookups = stats.cache_hits + stats.cache_misses;
  L["store.cache_hit_ratio"] = {
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cache_hits) /
                         static_cast<double>(lookups),
      "ratio"};
  L["store.segments_scanned_per_scan"] = {
      stats.scans == 0 ? 0.0
                       : static_cast<double>(stats.segments_scanned) /
                             static_cast<double>(stats.scans),
      "count"};
  L["store.postings_rows_seeked"] = {
      static_cast<double>(stats.postings_rows_seeked), "count"};
  L["store.gc_pending"] = {static_cast<double>(stats.gc_pending()), "count"};
  L["load.query_lateness_p99_ms"] = {p99(open.phase.query_lateness_ms), "ms"};
  L["load.append_lateness_p99_ms"] = {p99(open.phase.append_lateness_ms),
                                      "ms"};
  L["trace.run_s"] = {median(traced_s), "s"};
  L["trace.overhead_s"] = {median(traced_s) - median(plain_s), "s"};
  return result;
}

}  // namespace perfbench
