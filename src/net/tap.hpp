// Passive optical TAP pair (§3.1, §4.2).
//
// The paper places one TAP on the fiber entering the core switch and one
// on the fiber leaving it; both mirror every photon to the P4 switch. The
// model duplicates each packet at the switch's ingress hook and at the
// monitored port's egress hook, tags the copy with its mirror point, and
// delivers it to the monitor after a fixed (equal) TAP-to-switch latency —
// equal latencies are what let the P4 program recover the queuing delay
// from the two copies' arrival-time difference.
//
// Hot-path design: the constant TAP latency makes deliveries strictly
// FIFO, so a mirror copy is written straight into the pair's event lane
// (sim::Lane: a reusable ring whose head alone sits in the event heap —
// no per-copy closure or heap entry). Each packet's wire bytes are
// serialized once and shared between its ingress and egress copies
// through a small uid-keyed cache; the copies differ only in the TTL the
// core switch decremented, which is patched in place with an incremental
// checksum update instead of re-serializing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {

enum class MirrorPoint : std::uint8_t {
  kIngress = 0,  // copy taken as the packet enters the core switch
  kEgress = 1,   // copy taken as the packet leaves the core switch
};

/// Consumer of mirrored traffic (the P4 switch's two monitor ports).
class MirrorSink {
 public:
  virtual ~MirrorSink() = default;
  virtual void on_mirrored(const Packet& pkt, MirrorPoint point) = 0;
  /// Wire-level delivery: the packet plus its already-serialized header
  /// bytes (valid only for the duration of the call). Overridden by sinks
  /// that parse bytes (the P4 switch) to skip re-serialization; the
  /// default forwards to the packet-level hook.
  virtual void on_mirrored_wire(const Packet& pkt,
                                std::span<const std::uint8_t> bytes,
                                MirrorPoint point) {
    (void)bytes;
    on_mirrored(pkt, point);
  }
  /// Boundary-safe delivery: only the serialized bytes plus the original
  /// on-wire frame length — everything a pipeline shard's sink needs
  /// without referencing the main timeline's Packet object (which cannot
  /// cross the shard boundary). The P4 switch and the capture tee
  /// override this; the default synthesizes a minimal Packet carrying
  /// the wire length and takes the packet path.
  virtual void on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                                 MirrorPoint point, std::uint32_t wire_len);
};

/// One mirror copy crossing the main-timeline -> pipeline-shard
/// boundary: the serialized header bytes, the mirror point, the
/// original on-wire frame length (pcap records preserve it) and the
/// delivery timestamp (mirror time + TAP latency — the conservative
/// lookahead bound). `seq` increases per boundary; together with the
/// timestamp and the shard id it totally orders boundary events, which
/// is what keeps the parallel merge deterministic.
struct MirrorFrame {
  SimTime at = 0;
  std::uint64_t seq = 0;
  std::uint32_t wire_len = 0;
  std::uint8_t len = 0;
  MirrorPoint point = MirrorPoint::kIngress;
  std::array<std::uint8_t, kMaxHeaderBytes> bytes;
};

/// Producer end of a shard boundary. Implemented by the fabric's
/// per-switch shard; push() must accept frames in non-decreasing `at`
/// order and may block (never deadlock) when the boundary is congested.
class MirrorBoundary {
 public:
  virtual ~MirrorBoundary() = default;
  virtual void push(const MirrorFrame& frame) = 0;
};

class OpticalTapPair {
 public:
  /// `tap_latency` models the fiber + TAP path to the monitor; it is the
  /// same for both mirror points, so it cancels in delay differences.
  OpticalTapPair(sim::Simulation& sim, MirrorSink& sink,
                 SimTime tap_latency = units::microseconds(1))
      : sim_(sim),
        sink_(sink),
        tap_latency_(tap_latency),
        deliveries_(sim.events(), [this](const PendingMirror& copy) {
          sink_.on_mirrored_wire(
              copy.pkt,
              std::span<const std::uint8_t>(copy.bytes.data(), copy.len),
              copy.point);
        }) {}

  /// Attach the ingress-side TAP to a switch (mirrors every arrival) and
  /// the egress-side TAP to one of its output ports (mirrors every
  /// departure on the monitored link).
  void attach(LegacySwitch& sw, OutputPort& monitored_port);

  /// Parallel-fabric mode: route mirror copies across `boundary` instead
  /// of scheduling deliveries on this timeline. The shard on the other
  /// side replays each frame at `frame.at` against its own clock and
  /// feeds the sink through on_mirrored_bytes(). Pass nullptr to return
  /// to in-timeline delivery (the serial path, bit-for-bit unchanged).
  void set_boundary(MirrorBoundary* boundary) { boundary_ = boundary; }

  std::uint64_t mirrored_pkts() const { return mirrored_pkts_; }
  /// Copies whose wire bytes were reused from the serialize-once cache
  /// (the egress copy of every packet both TAPs saw).
  std::uint64_t serialize_cache_hits() const { return cache_hits_; }

 private:
  struct PendingMirror {
    Packet pkt;
    std::array<std::uint8_t, kMaxHeaderBytes> bytes;
    std::uint8_t len = 0;
    MirrorPoint point = MirrorPoint::kIngress;
  };
  struct CacheEntry {
    std::uint64_t uid = 0;  // 0 = empty (real packets have uid > 0)
    std::array<std::uint8_t, kMaxHeaderBytes> bytes;
    std::uint8_t len = 0;
    std::uint8_t ttl = 0;
  };
  // Direct-mapped: must comfortably cover the packets in flight between
  // a packet's two mirror points (bounded by the core switch's queue).
  static constexpr std::size_t kCacheSlots = 1024;

  void mirror(const Packet& pkt, MirrorPoint point);
  std::uint8_t serialize_shared(const Packet& pkt,
                                std::array<std::uint8_t, kMaxHeaderBytes>& out);

  sim::Simulation& sim_;
  MirrorSink& sink_;
  SimTime tap_latency_;
  MirrorBoundary* boundary_ = nullptr;
  std::uint64_t boundary_seq_ = 0;
  std::uint64_t mirrored_pkts_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::vector<CacheEntry> cache_ = std::vector<CacheEntry>(kCacheSlots);
  sim::Lane<PendingMirror> deliveries_;
};

}  // namespace p4s::net
