// Discrete-event scheduler.
//
// An explicit vector-backed binary min-heap keyed by (time, seq) gives
// O(log n) push/pop with deterministic FIFO ordering for simultaneous
// events — determinism matters because every experiment in
// EXPERIMENTS.md must be exactly reproducible.
//
// The heap holds one entry per event *source*, not one per event in
// flight. Three kinds of source share it:
//
//  * One-shot events (schedule_at): the callback waits in a slab slot
//    recycled through a free list, so steady-state scheduling performs
//    no heap allocation (hot-path callbacks capture a pointer or two,
//    which fits std::function's inline storage).
//  * Lanes (Lane<T>): FIFO streams whose events are pushed in
//    non-decreasing time order — a link's deliveries (constant delay,
//    serialized transmissions) or a TAP pair's copies (constant
//    latency). Events wait in the lane's ring; only the head has a heap
//    entry, and firing it replaces that entry with the next head's.
//  * Timers (Timer): one re-armable deadline, such as an RTO. Re-arming
//    to a later deadline pushes nothing while the live entry is due no
//    later: when that entry surfaces early it is re-keyed in place
//    without advancing the clock or counting as an executed event. Only
//    an earlier re-arm pushes a new entry; the superseded one is dropped
//    uncounted when it surfaces.
//
// Every event draws its seq when it is pushed or armed — exactly when a
// per-event schedule_at would — so the heap is a k-way merge of sorted
// streams that pops the same (time, seq) sequence as a heap holding
// every event separately, and same-time ties resolve identically.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/ring.hpp"
#include "util/units.hpp"

namespace p4s::sim {

using EventFn = std::function<void()>;

class EventQueue;
template <typename T>
class Lane;

/// Base of the queue's multi-event sources (Lane, Timer). A source
/// registers with its queue for its lifetime and must be destroyed
/// before the queue; its heap entries carry its registry index, so
/// entries left behind by a destroyed source are dropped when they
/// surface. Sources capture their own address and do not move.
class EventSource {
 public:
  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;

 protected:
  explicit EventSource(EventQueue& queue);
  ~EventSource();

  /// One of this source's heap entries, keyed (at, seq), is at the top
  /// of the heap. The source must call exactly one of
  /// EventQueue::replace_top / pop_top before running any callback, and
  /// EventQueue::begin_event before executing an event. Timer and Lane
  /// are the implementations.
  virtual void surface(SimTime at, std::uint64_t seq) = 0;

  EventQueue& queue_;
  std::uint32_t id_;

  friend class EventQueue;
};

class EventQueue {
 public:
  EventQueue() = default;
  // Sources capture the queue's address, so the queue must not move.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue() { assert(sources_.size() == free_sources_.size()); }

  /// Current simulated time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). Events at
  /// equal times fire in scheduling order. One-shot events cannot be
  /// cancelled; use a Timer for a deadline that moves or goes away.
  void schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` ns from now.
  void schedule_in(SimTime delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue is empty or `until` is reached. Events
  /// scheduled exactly at `until` DO run. Afterwards now() == until
  /// whenever until > now() on entry — the clock advances to the horizon
  /// even if the queue drained early (callers treat run_until(t) as
  /// "simulate up to t", so wall-clock-style periods keep their length
  /// regardless of event density; pinned by EventQueue.RunUntil* tests).
  void run_until(SimTime until);

  /// Run until the queue drains completely.
  void run();

  /// Execute at most one event; returns false if none were pending.
  bool step();

  /// Heap entries: one per scheduled one-shot, per non-empty lane and
  /// per timer entry not yet surfaced (a cancelled or superseded timer
  /// entry counts until it surfaces).
  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  /// High-water mark of pending_events() over the queue's lifetime (the
  /// "peak heap events" figure in BENCH_*.json).
  std::size_t peak_pending_events() const { return peak_live_; }

 private:
  friend class EventSource;
  friend class Timer;
  template <typename T>
  friend class Lane;

  /// Next tie-break sequence number; draw one per event, when the event
  /// is pushed or armed.
  std::uint64_t draw_seq() { return next_seq_++; }
  /// Push a heap entry for source `id`.
  void push_entry(SimTime at, std::uint64_t seq, std::uint32_t id) {
    push(HeapEntry{at, seq, kSourceBit | id});
  }
  /// Re-key the top entry (which belongs to source `id`) to a later key.
  void replace_top(SimTime at, std::uint64_t seq, std::uint32_t id);
  /// Remove the top entry.
  void pop_top();
  /// Start executing an event at `at`: advance the clock and count it.
  void begin_event(SimTime at) {
    assert(at >= now_);
    now_ = at;
    ++executed_;
  }

  // `ref` is a slab slot for one-shots, or kSourceBit | source id.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t ref;
  };
  static constexpr std::uint32_t kSourceBit = 1u << 31;

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void push(const HeapEntry& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Surface the top entry: executes it, re-keys it or drops it. Returns
  // true if an event executed.
  bool surface_top();

  std::uint32_t add_source(EventSource* source);
  void remove_source(std::uint32_t id);

  std::vector<EventFn> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<EventSource*> sources_;  // nullptr: destroyed, id free
  std::vector<std::uint32_t> free_sources_;
  std::vector<HeapEntry> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_live_ = 0;
};

inline EventSource::EventSource(EventQueue& queue)
    : queue_(queue), id_(queue.add_source(this)) {}

inline EventSource::~EventSource() { queue_.remove_source(id_); }

/// A re-armable deadline: the one cancellable event. At most one
/// deadline is armed at a time; arm() replaces it and cancel() clears
/// it. The callback runs with armed() == false and may re-arm.
class Timer : public EventSource {
 public:
  Timer(EventQueue& queue, EventFn fn)
      : EventSource(queue), fn_(std::move(fn)) {}

  /// (Re)arm to fire at `deadline` (>= now()), replacing any armed
  /// deadline. The event takes its tie-break seq now, exactly as a
  /// freshly scheduled one-shot would.
  void arm(SimTime deadline);
  void arm_in(SimTime delay) { arm(queue_.now() + delay); }
  void cancel() { armed_ = false; }
  bool armed() const { return armed_; }

 private:
  void surface(SimTime at, std::uint64_t seq) override;

  EventFn fn_;
  bool armed_ = false;
  SimTime deadline_ = 0;
  std::uint64_t seq_ = 0;
  // The live heap entry (older entries are superseded): its key is at
  // or before (deadline_, seq_) while armed.
  bool queued_ = false;
  std::uint64_t queued_seq_ = 0;
  SimTime queued_at_ = 0;
};

/// A FIFO stream of events carrying payloads of type T (trivially
/// copyable or cheap to copy), pushed in non-decreasing time order and
/// handed to `fire` in that order. The ring grows to the stream's peak
/// backlog and is reused, so steady state allocates nothing.
template <typename T>
class Lane : public EventSource {
 public:
  Lane(EventQueue& queue, std::function<void(const T&)> fire)
      : EventSource(queue), fire_(std::move(fire)) {}

  /// Append an event at `at` (>= now() and >= the previous push's time)
  /// and return its payload slot for the caller to fill before the
  /// event can fire.
  T& push(SimTime at) {
    assert(at >= queue_.now());
    assert(ring_.empty() || at >= ring_.back().at);
    Item& item = ring_.push_back();
    item.at = at;
    item.seq = queue_.draw_seq();
    if (ring_.size() == 1) queue_.push_entry(at, item.seq, id_);
    return item.payload;
  }

 private:
  struct Item {
    SimTime at = 0;
    std::uint64_t seq = 0;
    T payload{};
  };

  void surface(SimTime at, std::uint64_t seq) override {
    if (ring_.empty() || ring_.front().seq != seq) {
      queue_.pop_top();  // left by a destroyed source that held our id
      return;
    }
    // Copy the payload out before the callback: it may push into (and
    // grow) this ring.
    const T payload = ring_.front().payload;
    ring_.pop_front();
    if (ring_.empty()) {
      queue_.pop_top();
    } else {
      queue_.replace_top(ring_.front().at, ring_.front().seq, id_);
    }
    queue_.begin_event(at);
    fire_(payload);
  }

  std::function<void(const T&)> fire_;
  util::Ring<Item> ring_;
};

}  // namespace p4s::sim
