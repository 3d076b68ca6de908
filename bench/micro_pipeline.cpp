// Micro-benchmarks (google-benchmark) for the P4 pipeline emulation and
// the report path: per-packet costs of parsing, hashing, sketch updates,
// register operations, the full telemetry program, and Logstash/archiver
// document handling. These quantify the emulation's packet-processing
// rate (the hardware target runs at line rate by construction; the
// numbers here bound the *simulation's* throughput).
#include <benchmark/benchmark.h>

#include <array>

#include "bench_json.hpp"
#include "net/wire.hpp"
#include "p4/cms.hpp"
#include "p4/hash.hpp"
#include "p4/p4_switch.hpp"
#include "p4/register.hpp"
#include "psonar/archiver.hpp"
#include "telemetry/int_export.hpp"
#include "psonar/logstash.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/dataplane_program.hpp"
#include "util/json.hpp"

using namespace p4s;

namespace {

net::Packet sample_packet(std::uint32_t seq = 1000) {
  return net::make_tcp_packet(net::ipv4(10, 0, 0, 10),
                              net::ipv4(10, 1, 0, 10), 40000, 5201, seq, 0,
                              net::tcpflags::kAck, 1460, 1 << 20);
}

void BM_SerializeHeaders(benchmark::State& state) {
  const net::Packet pkt = sample_packet();
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::serialize_headers(pkt, buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SerializeHeaders);

void BM_ParseHeaders(benchmark::State& state) {
  const net::Packet pkt = sample_packet();
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  const std::size_t len = net::serialize_headers(pkt, buf);
  p4::Parser parser;
  for (auto _ : state) {
    p4::PacketContext ctx;
    ctx.data = std::span<const std::uint8_t>(buf.data(), len);
    benchmark::DoNotOptimize(parser.parse(ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseHeaders);

void BM_FlowHash(benchmark::State& state) {
  const net::FiveTuple tuple = sample_packet().five_tuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p4::flow_hash(tuple));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowHash);

void BM_CmsUpdate(benchmark::State& state) {
  p4::CountMinSketch cms(static_cast<std::size_t>(state.range(0)), 4096);
  const auto key = p4::five_tuple_key(sample_packet().five_tuple());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cms.update(key, 1460));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmsUpdate)->Arg(2)->Arg(3)->Arg(4);

void BM_RegisterRmw(benchmark::State& state) {
  p4::RegisterArray<std::uint64_t> reg(2048, 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg.execute((i++) & 2047, [](std::uint64_t& v) { return ++v; }));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegisterRmw);

// Full telemetry program: alternating ingress/egress TAP copies of a
// promoted flow (the steady-state hot path).
void BM_ProgramIngress(benchmark::State& state) {
  sim::Simulation sim(1);
  telemetry::DataPlaneProgram program;
  p4::P4Switch p4sw(sim, "bench");
  p4sw.load_program(program);
  // Warm up: promote the flow past the CMS threshold.
  std::uint32_t seq = 1;
  for (int i = 0; i < 100; ++i) {
    p4sw.on_mirrored(sample_packet(seq), net::MirrorPoint::kIngress);
    seq += 1460;
  }
  for (auto _ : state) {
    net::Packet pkt = sample_packet(seq);
    seq += 1460;
    p4sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
    p4sw.on_mirrored(pkt, net::MirrorPoint::kEgress);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ProgramIngress);

void BM_EventQueue(benchmark::State& state) {
  sim::EventQueue q;
  for (auto _ : state) {
    q.schedule_in(1, []() {});
    q.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

void BM_JsonRoundTrip(benchmark::State& state) {
  util::Json doc = util::Json::object();
  doc["report"] = "throughput";
  doc["ts_ns"] = static_cast<std::int64_t>(123456789);
  doc["flow"] = util::JsonObject{{"src_ip", util::Json("10.0.0.10")},
                                 {"dst_ip", util::Json("10.1.0.10")},
                                 {"src_port", util::Json(40000)}};
  doc["throughput_bps"] = 1.23e9;
  const std::string text = doc.dump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Json::parse(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonRoundTrip);

void BM_IntExporterSampled(benchmark::State& state) {
  telemetry::IntExporter::Config config;
  config.enabled = true;
  config.sample_every = static_cast<std::uint32_t>(state.range(0));
  telemetry::IntExporter exporter(config);
  SimTime now = 1;
  for (auto _ : state) {
    exporter.on_egress(7, 0xABCDEF, 1000, 5000, now += 100);
    if (exporter.postcards().pending() > 1000) {
      exporter.postcards().drain();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntExporterSampled)->Arg(32)->Arg(512);

void BM_ArchiverSearch(benchmark::State& state) {
  ps::Archiver archiver;
  for (int i = 0; i < 1000; ++i) {
    util::Json doc = util::Json::object();
    doc["report"] = "throughput";
    doc["ts_ns"] = static_cast<std::int64_t>(i);
    doc["throughput_bps"] = 1e8 + i;
    doc["flow"] = util::JsonObject{
        {"dst_ip", util::Json(i % 3 == 0 ? "10.1.0.10" : "10.2.0.10")}};
    archiver.index("p4sonar-throughput", std::move(doc));
  }
  ps::Archiver::Query query;
  query.terms["flow.dst_ip"] = util::Json("10.1.0.10");
  for (auto _ : state) {
    benchmark::DoNotOptimize(archiver.search("p4sonar-throughput", query));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ArchiverSearch);

void BM_LogstashToArchiver(benchmark::State& state) {
  ps::Archiver archiver;
  ps::Logstash logstash(archiver);
  util::Json doc = util::Json::object();
  doc["report"] = "throughput";
  doc["ts_ns"] = static_cast<std::int64_t>(42);
  doc["throughput_bps"] = 1e9;
  const std::string line = doc.dump() + "\n";
  for (auto _ : state) {
    logstash.tcp_input(line);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogstashToArchiver);

// ---- Measured hot loops feeding BENCH_micro_pipeline.json -------------
//
// These run outside google-benchmark so the numbers land in the
// machine-readable trajectory (google-benchmark's own timings stay on
// stdout for humans). Loop sizes are fixed so runs are comparable.

// Steady-state scheduling: schedule + fire, the simulator's innermost
// loop. This is the "events_per_sec" figure the perf trajectory ratchets.
double measured_events_per_sec(sim::EventQueue& q) {
  constexpr int kEvents = 4'000'000;
  bench::WallTimer timer;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule_in(1, []() {});
    q.step();
  }
  return kEvents / timer.elapsed_s();
}

// The TCP RTO pattern: every "ACK" re-arms the timer further out; only
// occasionally does it actually fire. Exercises Timer::arm and the
// re-keying of an entry that surfaces before its deadline.
double measured_rto_churn_per_sec(sim::EventQueue& q) {
  constexpr int kOps = 2'000'000;
  bench::WallTimer timer;
  sim::Timer rto(q, []() {});
  for (int i = 0; i < kOps; ++i) {
    rto.arm_in(100);
    if (i % 64 == 63) q.step();
  }
  q.run();
  return kOps / timer.elapsed_s();
}

// Full per-copy telemetry cost through the P4 switch (serialize + parse +
// program), alternating ingress/egress copies of a promoted flow.
double measured_mirrored_pkts_per_sec(sim::Simulation& sim) {
  constexpr int kPairs = 500'000;
  telemetry::DataPlaneProgram program;
  p4::P4Switch p4sw(sim, "bench");
  p4sw.load_program(program);
  std::uint32_t seq = 1;
  for (int i = 0; i < 100; ++i) {  // promote the flow past the CMS gate
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

int write_bench_json() {
  bench::WallTimer wall;
  sim::EventQueue q;
  const double events_per_sec = measured_events_per_sec(q);
  const double churn_per_sec = measured_rto_churn_per_sec(q);
  sim::Simulation sim(1);
  const double pkts_per_sec = measured_mirrored_pkts_per_sec(sim);

  bench::BenchReport report("micro_pipeline");
  report.wall_time_s(wall.elapsed_s());
  report.metric("events_per_sec", events_per_sec);
  report.metric("rto_churn_ops_per_sec", churn_per_sec);
  report.metric("mirrored_pkts_per_sec", pkts_per_sec);
  report.metric("peak_heap_events",
                static_cast<std::uint64_t>(q.peak_pending_events()));
  report.meta("seed", util::Json(1));
  std::printf("measured: %.3gM events/s, %.3gM rto-churn ops/s, "
              "%.3gM mirrored pkts/s\n",
              events_per_sec / 1e6, churn_per_sec / 1e6, pkts_per_sec / 1e6);
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_bench_json();
}
