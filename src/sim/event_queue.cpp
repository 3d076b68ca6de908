#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace p4s::sim {

void EventQueue::schedule_at(SimTime at, EventFn fn) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue: scheduling into the past");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  }
  push(HeapEntry{at, draw_seq(), slot});
}

void EventQueue::push(const HeapEntry& entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
  if (heap_.size() > peak_live_) peak_live_ = heap_.size();
}

void EventQueue::replace_top(SimTime at, std::uint64_t seq,
                             std::uint32_t id) {
  const HeapEntry entry{at, seq, kSourceBit | id};
  assert(!earlier(entry, heap_.front()));
  heap_.front() = entry;
  sift_down(0);
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

std::uint32_t EventQueue::add_source(EventSource* source) {
  if (free_sources_.empty()) {
    assert(sources_.size() < kSourceBit);
    sources_.push_back(source);
    return static_cast<std::uint32_t>(sources_.size() - 1);
  }
  const std::uint32_t id = free_sources_.back();
  free_sources_.pop_back();
  sources_[id] = source;
  return id;
}

void EventQueue::remove_source(std::uint32_t id) {
  // Entries still carrying `id` are dropped when they surface: they find
  // either no source or one whose live entry has another seq.
  sources_[id] = nullptr;
  free_sources_.push_back(id);
}

bool EventQueue::surface_top() {
  const HeapEntry top = heap_.front();
  if ((top.ref & kSourceBit) != 0) {
    EventSource* source = sources_[top.ref & ~kSourceBit];
    if (source == nullptr) {
      pop_top();
      return false;
    }
    const std::uint64_t executed = executed_;
    source->surface(top.time, top.seq);
    return executed_ != executed;
  }
  // One-shot: move the callback out and free the slot before running, so
  // the callback may schedule into (and reuse) the slot it vacated.
  EventFn fn = std::move(slab_[top.ref]);
  free_slots_.push_back(top.ref);
  pop_top();
  begin_event(top.time);
  fn();
  return true;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    if (surface_top()) return true;
  }
  return false;
}

void EventQueue::run_until(SimTime until) {
  // Entries past the horizon stay put, whatever they turn out to be
  // (event, re-keyed timer, dropped entry): the clock never sees them.
  while (!heap_.empty() && heap_.front().time <= until) surface_top();
  // Advance to the horizon even when the queue drained early: see the
  // contract on the declaration.
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (!heap_.empty()) surface_top();
}

// ---- Timer ------------------------------------------------------------------

void Timer::arm(SimTime deadline) {
  if (deadline < queue_.now()) {
    throw std::invalid_argument("Timer: arming into the past");
  }
  armed_ = true;
  deadline_ = deadline;
  seq_ = queue_.draw_seq();
  // A live entry due no later surfaces first and is re-keyed then.
  if (queued_ && queued_at_ <= deadline) return;
  queued_ = true;
  queued_at_ = deadline;
  queued_seq_ = seq_;
  queue_.push_entry(deadline, seq_, id_);
}

void Timer::surface(SimTime at, std::uint64_t seq) {
  if (!queued_ || seq != queued_seq_) {
    queue_.pop_top();  // superseded by an earlier re-arm
    return;
  }
  if (armed_ && seq != seq_) {
    // Re-armed later while this entry waited: re-key, clock untouched.
    queued_at_ = deadline_;
    queued_seq_ = seq_;
    queue_.replace_top(deadline_, seq_, id_);
    return;
  }
  queued_ = false;
  queue_.pop_top();
  if (!armed_) return;  // cancelled
  armed_ = false;
  queue_.begin_event(at);
  fn_();
}

}  // namespace p4s::sim
