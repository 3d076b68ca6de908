#include "harness/live.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <optional>

#include "harness/forwarders.hpp"

namespace perfbench {

namespace {

using p4s::core::MonitoringSystem;

/// One repetition's outputs: times, counters and (traced) spans.
struct LiveRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  ArchiveDigest archive;
  std::uint64_t reports = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_heap = 0;
  std::uint64_t mirrored = 0;
  std::uint64_t serialize_hits = 0;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t queue_peak_bytes = 0;
  std::uint64_t tcp_segments = 0;
  std::uint64_t tcp_retransmits = 0;
  std::uint64_t tcp_rto = 0;
  std::uint64_t frames = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t barrier_waits = 0;
  std::uint64_t blocked_pushes = 0;
  std::size_t workers = 0;
  // Traced repetitions only.
  SpanStats telemetry;  // merged over sites
  SpanStats psonar;
  double slices_s = 0.0;  // sum of the run_until slice spans
};

std::unique_ptr<MonitoringSystem> build(const LiveSpec& spec) {
  auto system = std::make_unique<MonitoringSystem>(spec.config);
  auto configure = [&] {
    for (const std::string& cmd : spec.psconfig) {
      system->psonar().psconfig().execute(cmd);
    }
  };
  if (spec.psconfig_before_start) {
    system->start();
    configure();
  } else {
    configure();
    system->start();
  }
  spec.add_traffic(*system);
  return system;
}

/// One cold set-up: the system is built in a child forked from this
/// process, which has built nothing yet, so every sample pays what a
/// fresh process pays. Most of the cost is first-touch page faults:
/// repeated in one process, set-up read 3.5 or 8 ms (fabric16) depending
/// on whether the allocator recycled the last build's pages. Returns
/// seconds, or a negative value when the child failed.
double cold_setup_s(const LiveSpec& spec) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    double s = -1.0;
    try {
      const auto start = Clock::now();
      const auto system = build(spec);
      s = seconds_since(start);
    } catch (const std::exception&) {
    }
    const bool sent = write(fds[1], &s, sizeof s) == sizeof s;
    _exit(sent && s >= 0.0 ? 0 : 1);
  }
  close(fds[1]);
  double s = -1.0;
  if (read(fds[0], &s, sizeof s) != sizeof s) s = -1.0;
  close(fds[0]);
  int status = 0;
  const bool ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  return ok ? s : -1.0;
}

/// Run one repetition; failed checks go to `result`.
LiveRep run_live_rep(const LiveSpec& spec, bool traced, Result& result) {
  LiveRep rep;
  // Traced: every control plane shares the perfSONAR node's report sink,
  // so one timed forwarder in front of it serves them all (they run on
  // the main timeline); each site gets its own telemetry shim. Declared
  // first so they outlive the system that points at them.
  std::optional<TimedReportSink> report_sink;
  std::vector<std::unique_ptr<TimedP4Program>> programs;

  const auto setup_start = Clock::now();
  auto system = build(spec);
  rep.setup_s = seconds_since(setup_start);

  if (traced) {
    report_sink.emplace(*system->control_plane().sink());
    for (const auto& site : system->monitored_switches()) {
      site->control_plane().set_sink(&*report_sink);
      programs.push_back(std::make_unique<TimedP4Program>(site->program()));
      site->p4_switch().load_program(*programs.back());
    }
  }

  const auto run_start = Clock::now();
  for (int s = 1; s <= spec.horizon_s; ++s) {
    const std::int64_t slice_start = now_ns();
    system->run_until(p4s::units::seconds(s));
    rep.slices_s += static_cast<double>(now_ns() - slice_start) * 1e-9;
  }
  rep.run_s = seconds_since(run_start);

  // Counters (fabric_stats() is the merge-barrier snapshot).
  const auto fabric = system->fabric_stats();
  auto& events = system->simulation().events();
  rep.events = events.executed_events();
  rep.peak_heap = events.peak_pending_events();
  rep.mirrored = fabric.mirrored;
  rep.frames = fabric.processed + fabric.parse_errors;
  rep.parse_errors = fabric.parse_errors;
  rep.barrier_waits = fabric.barrier_waits;
  rep.blocked_pushes = fabric.blocked_pushes;
  rep.workers = fabric.workers;
  // Mirrored = processed + parse errors. Copies mirrored within the last
  // TAP latency before the horizon are still crossing the TAP; one more
  // TAP latency (untimed) delivers exactly those, and nothing mirrored
  // later, so the law then holds with equality.
  system->run_until(p4s::units::seconds(spec.horizon_s) +
                    spec.config.tap_latency);
  const auto drained = system->fabric_stats();
  for (std::size_t i = 0; i < fabric.sites.size(); ++i) {
    const auto& site = drained.sites[i];
    const std::uint64_t parsed = site.processed + site.parse_errors;
    result.check(parsed == fabric.sites[i].mirrored,
                 "site '" + site.id + "': mirrored " +
                     std::to_string(fabric.sites[i].mirrored) +
                     " by the horizon, parsed " + std::to_string(parsed));
  }
  rep.reports = drained.reports_emitted;
  for (const auto& site : system->monitored_switches()) {
    rep.serialize_hits += site->taps().serialize_cache_hits();
  }
  const auto& queue = system->topology().bottleneck_port->queue().stats();
  rep.bottleneck_drops = queue.dropped_pkts;
  rep.queue_peak_bytes = queue.peak_bytes;
  for (const auto& flow : system->flows()) {
    const auto& stats = flow->sender().stats();
    rep.tcp_segments += stats.segments_sent;
    rep.tcp_retransmits += stats.retransmitted_segments;
    rep.tcp_rto += stats.rto_count;
  }

  rep.archive = digest_archive(system->psonar().archiver());
  check_exactly_once(rep.reports, rep.archive.docs, result);
  if (traced) {
    result.check(report_sink->spans().count() == rep.reports,
                 "report sink saw a different report count");
    rep.psonar = report_sink->spans();
  }
  for (const auto& program : programs) rep.telemetry.merge(program->spans());
  return rep;
}

void add_live_layers(const LiveRep& rep, double run_s_traced,
                     double run_s_plain, Result& result) {
  auto& L = result.layers;
  const auto count = [](std::uint64_t v) {
    return Metric{static_cast<double>(v), "count"};
  };
  // Timeline self time: the slices minus the child layers that ran
  // inside them on the main thread. With a sharded fabric the telemetry
  // spans run on worker threads, outside the main timeline's interval.
  const bool serial_pipeline = rep.workers == 0;
  const double self_s = rep.slices_s - rep.psonar.sum_s() -
                        (serial_pipeline ? rep.telemetry.sum_s() : 0.0);
  L["sim.events"] = count(rep.events);
  L["sim.peak_heap"] = count(rep.peak_heap);
  L["sim.self_s"] = {self_s, "s"};
  L["sim.ns_per_event"] = {
      rep.events == 0 ? 0.0 : self_s * 1e9 / static_cast<double>(rep.events),
      "ns"};
  L["net.mirrored"] = count(rep.mirrored);
  L["net.serialize_hit_ratio"] = {
      rep.mirrored == 0 ? 0.0
                        : static_cast<double>(rep.serialize_hits) /
                              static_cast<double>(rep.mirrored),
      "ratio"};
  L["net.bottleneck_drops"] = count(rep.bottleneck_drops);
  L["net.queue_peak_bytes"] = {static_cast<double>(rep.queue_peak_bytes),
                               "bytes"};
  L["tcp.segments"] = count(rep.tcp_segments);
  L["tcp.retransmits"] = count(rep.tcp_retransmits);
  L["tcp.rto_fired"] = count(rep.tcp_rto);
  L["p4.frames"] = count(rep.frames);
  L["p4.parse_errors"] = count(rep.parse_errors);
  L["telemetry.ingress_p50_ns"] = {rep.telemetry.quantile_ns(0.50), "ns"};
  L["telemetry.ingress_p99_ns"] = {rep.telemetry.quantile_ns(0.99), "ns"};
  L["telemetry.busy_s"] = {rep.telemetry.sum_s(), "s"};
  L["telemetry.share"] = {rep.telemetry.sum_s() / run_s_traced, "ratio"};
  L["cp.reports"] = count(rep.reports);
  L["psonar.report_ns"] = {rep.psonar.mean_ns(), "ns"};
  L["psonar.busy_s"] = {rep.psonar.sum_s(), "s"};
  L["psonar.docs"] = count(rep.archive.docs);
  L["fabric.barrier_waits"] = count(rep.barrier_waits);
  L["fabric.blocked_pushes"] = count(rep.blocked_pushes);
  L["fabric.main_events"] = count(rep.events);
  L["trace.run_s"] = {run_s_traced, "s"};
  L["trace.overhead_s"] = {run_s_traced - run_s_plain, "s"};
}

}  // namespace

Result run_live_workload(const LiveSpec& spec, const Options& options,
                         const std::string& canonical_config,
                         const LiveSpec* serial_reference) {
  Result result;
  result.info["config_hash"] = config_hash(canonical_config);
  std::vector<double> setup_s;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::uint64_t digest = 0;
  LiveRep last_traced;

  // Set-up is sampled first, while this process is still small and has
  // no threads to fork.
  if (!options.trace) {
    for (std::size_t i = 0; i < kSetupSamples; ++i) {
      const double s = cold_setup_s(spec);
      result.check(s >= 0.0, "set-up failed in a forked child");
      if (s >= 0.0) setup_s.push_back(s);
    }
  }

  double serial_s = 0.0;
  if (serial_reference != nullptr) {
    const LiveRep ref = run_live_rep(*serial_reference, false, result);
    digest = ref.archive.digest;
    serial_s = ref.run_s;
    result.info["serial_run_s"] = std::to_string(serial_s);
  }
  // Plain runs measure; a traced invocation alternates plain and traced
  // repetitions so the tracing overhead is measured in the same process.
  // The budget starts after the serial reference, so it buys the measured
  // repetitions alone. At least two: a fig9 repetition takes 7-10 s on a
  // shared 4-core box, so a budget of 20-25 s would often stop after one,
  // leaving run_s one sample.
  RepBudget budget(options.seconds, 2);
  while (budget.more()) {
    const bool traced = options.trace && budget.reps() % 2 == 1;
    LiveRep rep = run_live_rep(spec, traced, result);
    budget.done(rep.setup_s + rep.run_s);
    (traced ? traced_s : plain_s).push_back(rep.run_s);
    if (digest == 0) digest = rep.archive.digest;
    result.check(rep.archive.digest == digest,
                 "report digest " + hex64(rep.archive.digest) +
                     " != " + hex64(digest));
    if (traced) last_traced = std::move(rep);
  }
  result.info["reps"] = std::to_string(budget.reps());
  result.info["report_digest"] = hex64(digest);

  if (options.trace) {
    add_live_layers(last_traced, median(traced_s), median(plain_s), result);
    if (serial_reference != nullptr) {
      result.layers["fabric.serial_run_s"] = {serial_s, "s"};
      result.layers["fabric.parallel_speedup"] = {serial_s / median(plain_s),
                                                  "ratio"};
    }
    return result;
  }
  result.e2e["setup_s"] = {median(setup_s), "s"};
  result.e2e["run_s"] = {median(plain_s), "s"};
  return result;
}

}  // namespace perfbench
