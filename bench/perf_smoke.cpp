// perf_smoke — the CI perf gate.
//
// Runs trimmed-down versions of the hot-path measurements (event
// scheduling, RTO cancel churn, TAP->parser->program packet cost) in a
// couple of seconds, writes BENCH_perf_smoke.json, and fails only if the
// JSON cannot be produced or re-parsed — absolute numbers are
// machine-dependent and are archived, not asserted.
//
// It also serves as the schema gate for the other benches' output:
//
//   perf_smoke --validate BENCH_a.json BENCH_b.json ...
//
// exits non-zero if any file is missing, malformed, or off-schema.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_json.hpp"
#include "p4/p4_switch.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "telemetry/dataplane_program.hpp"

using namespace p4s;

namespace {

net::Packet sample_packet(std::uint32_t seq) {
  return net::make_tcp_packet(net::ipv4(10, 0, 0, 10),
                              net::ipv4(10, 1, 0, 10), 40000, 5201, seq, 0,
                              net::tcpflags::kAck, 1460, 1 << 20);
}

double events_per_sec(sim::EventQueue& q) {
  constexpr int kEvents = 1'000'000;
  bench::WallTimer timer;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule_in(1, []() {});
    q.step();
  }
  return kEvents / timer.elapsed_s();
}

double rto_churn_per_sec(sim::EventQueue& q) {
  constexpr int kOps = 500'000;
  bench::WallTimer timer;
  sim::Timer rto(q, []() {});
  for (int i = 0; i < kOps; ++i) {
    rto.arm_in(100);
    if (i % 64 == 63) q.step();
  }
  q.run();
  return kOps / timer.elapsed_s();
}

double mirrored_pkts_per_sec(sim::Simulation& sim) {
  constexpr int kPairs = 100'000;
  telemetry::DataPlaneProgram program;
  p4::P4Switch p4sw(sim, "smoke");
  p4sw.load_program(program);
  std::uint32_t seq = 1;
  for (int i = 0; i < 100; ++i) {
    p4sw.on_mirrored(sample_packet(seq), net::MirrorPoint::kIngress);
    seq += 1460;
  }
  bench::WallTimer timer;
  for (int i = 0; i < kPairs; ++i) {
    net::Packet pkt = sample_packet(seq);
    seq += 1460;
    p4sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
    p4sw.on_mirrored(pkt, net::MirrorPoint::kEgress);
  }
  return 2.0 * kPairs / timer.elapsed_s();
}

// Bench-specific schema contracts layered over the generic p4s-bench-v1
// shape. fabric_scaling must carry its headline wall/throughput keys —
// downstream tooling plots them by name, so a silent rename is a gate
// failure, not a soft drift.
bool validate_bench_contract(const std::string& file) {
  std::ifstream in(file);
  if (!in) return false;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    const util::Json doc = util::Json::parse(text);
    const std::string& name = doc.at("name").as_string();
    const auto require_positive = [&](const char* key) {
      const auto& metrics = doc.at("metrics").as_object();
      const auto it = metrics.find(key);
      if (it == metrics.end() || !it->second.is_number() ||
          it->second.as_double() <= 0.0) {
        std::fprintf(stderr,
                     "perf_smoke --validate: %s: %s requires positive "
                     "metric '%s'\n",
                     file.c_str(), name.c_str(), key);
        return false;
      }
      return true;
    };
    if (name == "fabric_scaling") {
      for (const char* key :
           {"wall_seconds", "copies_per_switch_per_sec"}) {
        if (!require_positive(key)) return false;
      }
    } else if (name == "sketch_scale") {
      // The headline keys of each part: fidelity sample count, the
      // 100k-flow tier throughputs (present in quick and full runs), and
      // the pipeline match rate. The rel-err *bounds* are enforced by the
      // bench's own exit code; here we gate on the schema.
      for (const char* key :
           {"fidelity_samples", "fidelity_adds_per_sec",
            "registers_100k_events_per_sec", "cuckoo_100k_events_per_sec",
            "cuckoo_100k_tracked", "pipeline_pairs",
            "pipeline_copies_per_sec"}) {
        if (!require_positive(key)) return false;
      }
    } else if (name == "program_vm") {
      // The interpreter-overhead headline: both throughputs and the
      // ratio. The overhead *budget* is enforced by the bench's own
      // exit code; here we gate on the schema.
      for (const char* key :
           {"events", "handwritten_events_per_sec",
            "interpreted_events_per_sec", "overhead_ratio"}) {
        if (!require_positive(key)) return false;
      }
    }
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "perf_smoke --validate: %s: %s\n", file.c_str(),
                 e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--validate") == 0) {
    bool ok = argc > 2;
    if (!ok) std::fprintf(stderr, "perf_smoke --validate: no files given\n");
    for (int i = 2; i < argc; ++i) {
      if (bench::BenchReport::validate_file(argv[i]) &&
          validate_bench_contract(argv[i])) {
        std::printf("ok: %s\n", argv[i]);
      } else {
        ok = false;
      }
    }
    return ok ? 0 : 1;
  }

  bench::WallTimer wall;
  sim::EventQueue q;
  const double events = events_per_sec(q);
  const double churn = rto_churn_per_sec(q);
  sim::Simulation sim(1);
  const double pkts = mirrored_pkts_per_sec(sim);

  bench::BenchReport report("perf_smoke");
  report.wall_time_s(wall.elapsed_s());
  report.metric("events_per_sec", events);
  report.metric("rto_churn_ops_per_sec", churn);
  report.metric("mirrored_pkts_per_sec", pkts);
  report.metric("peak_heap_events",
                static_cast<std::uint64_t>(q.peak_pending_events()));
  report.meta("seed", util::Json(1));
  std::printf("perf smoke: %.3gM events/s, %.3gM rto-churn ops/s, "
              "%.3gM mirrored pkts/s\n",
              events / 1e6, churn / 1e6, pkts / 1e6);
  return report.write() ? 0 : 1;
}
