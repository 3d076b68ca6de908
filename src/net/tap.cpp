#include "net/tap.hpp"

namespace p4s::net {

void MirrorSink::on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                                   MirrorPoint point, std::uint32_t wire_len) {
  // Byte-parsing sinks override this; for packet-level sinks synthesize
  // a Packet that carries only what survives the boundary (the wire
  // length) and take the usual path.
  Packet pkt;
  pkt.ip.total_len =
      wire_len > kEthernetHeaderBytes
          ? static_cast<std::uint16_t>(wire_len - kEthernetHeaderBytes)
          : 0;
  on_mirrored_wire(pkt, bytes, point);
}

void OpticalTapPair::attach(LegacySwitch& sw, OutputPort& monitored_port) {
  // Multicast hooks: several TAP pairs may observe the same switch/port
  // (one per monitored site in the fabric) without displacing each other.
  sw.add_ingress_hook(
      [this](const Packet& pkt) { mirror(pkt, MirrorPoint::kIngress); });
  monitored_port.add_egress_hook(
      [this](const Packet& pkt, SimTime /*queue_delay*/) {
        mirror(pkt, MirrorPoint::kEgress);
      });
}

void OpticalTapPair::mirror(const Packet& pkt, MirrorPoint point) {
  ++mirrored_pkts_;
  if (boundary_ != nullptr) {
    // Parallel fabric: the copy crosses to a pipeline shard instead of
    // being scheduled on this timeline. Frames leave in mirror order at
    // a constant latency, so `at` is non-decreasing as BoundaryQueue
    // requires; nothing is scheduled here, which is what keeps the main
    // timeline's event order identical to the serial run.
    MirrorFrame frame;
    frame.at = sim_.now() + tap_latency_;
    frame.seq = boundary_seq_++;
    frame.wire_len = kEthernetHeaderBytes + pkt.ip.total_len;
    frame.point = point;
    frame.len = serialize_shared(pkt, frame.bytes);
    boundary_->push(frame);
    return;
  }
  PendingMirror& copy = deliveries_.push(sim_.now() + tap_latency_);
  copy.pkt = pkt;
  copy.point = point;
  copy.len = serialize_shared(pkt, copy.bytes);
}

std::uint8_t OpticalTapPair::serialize_shared(
    const Packet& pkt, std::array<std::uint8_t, kMaxHeaderBytes>& out) {
  if (pkt.uid == 0) {
    // No identity to share under (synthetic/test packets): serialize.
    return static_cast<std::uint8_t>(serialize_headers(pkt, out));
  }
  CacheEntry& entry = cache_[pkt.uid & (kCacheSlots - 1)];
  if (entry.uid == pkt.uid) {
    // Same packet seen at the other TAP. The core switch only ever
    // decremented the TTL in between; patch it instead of re-serializing.
    if (entry.ttl != pkt.ip.ttl) {
      patch_ttl(std::span<std::uint8_t>(entry.bytes.data(), entry.len),
                pkt.ip.ttl);
      entry.ttl = pkt.ip.ttl;
    }
    ++cache_hits_;
  } else {
    entry.uid = pkt.uid;
    entry.ttl = pkt.ip.ttl;
    entry.len = static_cast<std::uint8_t>(serialize_headers(pkt, entry.bytes));
  }
  std::copy_n(entry.bytes.data(), entry.len, out.data());
  return entry.len;
}

}  // namespace p4s::net
