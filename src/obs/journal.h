// Structured event journal: a bounded ring of typed events. Recording is a
// move into a reserved slot — no I/O, no allocation beyond the strings an
// event already owns — so subsystems can journal from hot paths. Slots are
// constructed on demand up to the capacity (a short run never pays for 64k
// empty events); when the ring is full, the oldest events are overwritten
// and counted as dropped (an operator tailing a long run wants the recent
// window, not an OOM).
//
// Exports:
//  * JSON Lines — one flat object per event; `bassctl events` and the CI
//    schema check consume this.
//  * Chrome trace_event JSON — loadable in Perfetto/chrome://tracing.
//    Migrations render as duration slices on a per-subsystem track, other
//    events as instants, so a run can be scrubbed visually (Fig. 8 style).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/events.h"

namespace bass::obs {

class EventJournal {
 public:
  // Capacity is clamped to >= 1.
  explicit EventJournal(std::size_t capacity = 1 << 16);

  void record(Event event);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  // Events overwritten because the ring was full.
  std::int64_t dropped() const { return dropped_; }
  // Events ever recorded (retained + dropped): the position one past the
  // newest event, in the numbering for_each_from uses.
  std::size_t recorded() const { return static_cast<std::size_t>(dropped_) + size_; }

  // Visits retained events oldest-first.
  void for_each(const std::function<void(const Event&)>& fn) const;
  // Visits retained events whose position (0 = the first event ever
  // recorded) is >= `position`, oldest-first. Incremental consumers pass
  // the recorded() value of their previous visit to see only what was
  // appended since; positions already overwritten are skipped.
  template <class Fn>
  void for_each_from(std::size_t position, Fn&& fn) const {
    const std::size_t first = static_cast<std::size_t>(dropped_);
    for (std::size_t i = position > first ? position - first : 0; i < size_; ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  // Retained events oldest-first (copies; prefer for_each on large rings).
  std::vector<Event> snapshot() const;

  // Serializes retained events as JSON Lines. write_* return false on any
  // I/O error (including a failed final flush).
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  // Chrome trace_event format: {"traceEvents":[...]}, ts in microseconds
  // of sim time, one tid per subsystem (scheduler/controller/monitor/
  // network) with thread_name metadata so Perfetto labels the tracks.
  std::string to_trace() const;
  bool write_trace(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Event> ring_;  // reserved to capacity_; grows to it, then wraps
  std::size_t head_ = 0;     // index of the oldest retained event
  std::size_t size_ = 0;
  std::int64_t dropped_ = 0;
};

// Parses one journal JSONL line into (key, raw-value) pairs; values keep
// their JSON spelling (strings keep quotes). Returns false on a line that
// is not a flat JSON object. Only handles the flat objects the journal
// emits — this is a reader for our own format, not a JSON library.
bool parse_journal_line(const std::string& line,
                        std::vector<std::pair<std::string, std::string>>& fields);

}  // namespace bass::obs
