#include "net/link.hpp"

#include <cassert>

#include "util/logging.hpp"

namespace p4s::net {

SimTime Link::transmit(const Packet& pkt) {
  assert(rate_bps_ > 0);
  const SimTime tx = units::transmission_time(pkt.wire_bytes(), rate_bps_);
  const SimTime done = sim_.now() + tx;
  const bool lost =
      loss_rate_ > 0.0 && sim_.rng().chance(loss_rate_);
  if (lost) {
    ++lost_pkts_;
  } else if (sink_ != nullptr) {
    deliveries_.push(done + delay_) = pkt;
  }
  return done;
}

void OutputPort::enqueue(const Packet& pkt) {
  if (!transmitting_) {
    // Link idle: the packet still formally passes through the queue so
    // enqueue/dequeue statistics stay consistent.
    if (queue_.try_enqueue(pkt, sim_.now())) start_transmission();
    return;
  }
  queue_.try_enqueue(pkt, sim_.now());  // drop-tail on failure
}

void OutputPort::start_transmission() {
  assert(!queue_.empty());
  on_wire_ = *queue_.dequeue();
  transmitting_ = true;
  tx_done_.arm(link_.transmit(on_wire_.pkt));
}

void OutputPort::on_transmit_done() {
  const SimTime queue_delay = sim_.now() - on_wire_.enqueued_at;
  for (const auto& hook : egress_hooks_) hook(on_wire_.pkt, queue_delay);
  transmitting_ = false;
  if (!queue_.empty()) start_transmission();
}

}  // namespace p4s::net
