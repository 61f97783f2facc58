#include "obs/journal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace bass::obs {

namespace {

// Perfetto track (tid) per emitting subsystem, so decisions, probes, and
// allocator activity land on separate swim-lanes.
constexpr int kPid = 1;
constexpr int kTidScheduler = 1;
constexpr int kTidController = 2;
constexpr int kTidMonitor = 3;
constexpr int kTidNetwork = 4;
constexpr int kTidFault = 5;
constexpr int kTidZone = 6;

struct TraceShape {
  int tid = kTidNetwork;
  sim::Time ts = 0;        // slice start (== event time for instants)
  sim::Duration dur = -1;  // >= 0 => complete ("X") event, else instant
  std::string name;
};

struct TraceVisitor {
  TraceShape operator()(const ScheduleDecision& e) const {
    return {kTidScheduler, e.at, -1,
            util::str_format("schedule %s%s", e.scheduler.c_str(),
                             e.success ? "" : " FAILED")};
  }
  TraceShape operator()(const ProbeCompleted& e) const {
    return {kTidMonitor, e.at, -1,
            util::str_format("%s probe link%d", e.full ? "full" : "headroom",
                             e.link)};
  }
  TraceShape operator()(const HeadroomViolation& e) const {
    return {kTidMonitor, e.at, -1,
            util::str_format("headroom violation link%d", e.link)};
  }
  TraceShape operator()(const MigrationStarted& e) const {
    return {kTidController, e.at, -1,
            util::str_format("migration start c%d n%d->n%d", e.component,
                             e.from, e.to)};
  }
  TraceShape operator()(const MigrationCompleted& e) const {
    // Downtime renders as a slice covering the whole outage.
    return {kTidController, e.at - std::max<sim::Duration>(e.downtime, 0),
            std::max<sim::Duration>(e.downtime, 0),
            util::str_format("migrate c%d n%d->n%d", e.component, e.from, e.to)};
  }
  TraceShape operator()(const ControllerRound& e) const {
    return {kTidController, e.at, -1,
            util::str_format("controller round (%d violating)", e.violating)};
  }
  TraceShape operator()(const ReallocationSolved& e) const {
    return {kTidNetwork, e.at, -1,
            util::str_format("realloc %lld flows", static_cast<long long>(e.flows))};
  }
  TraceShape operator()(const LinkCapacityChanged& e) const {
    return {kTidNetwork, e.at, -1, util::str_format("capacity link%d", e.link)};
  }
  TraceShape operator()(const FaultInjected& e) const {
    return {kTidFault, e.at, -1,
            e.peer == net::kInvalidNode
                ? util::str_format("%s n%d", e.kind, e.node)
                : util::str_format("%s n%d-n%d", e.kind, e.node, e.peer)};
  }
  TraceShape operator()(const InvariantViolation& e) const {
    return {kTidFault, e.at, -1, util::str_format("INVARIANT %s", e.name)};
  }
  TraceShape operator()(const DeploymentClosed& e) const {
    return {kTidScheduler, e.at, -1,
            util::str_format("undeploy d%d (%d comps)", e.deployment,
                             e.components)};
  }
  TraceShape operator()(const AdmissionOutcome& e) const {
    // The admission wait renders as a slice covering arrival -> outcome.
    return {kTidScheduler, e.at - std::max<sim::Duration>(e.wait, 0),
            std::max<sim::Duration>(e.wait, 0),
            util::str_format("%s i%d (depth %d)", e.action, e.instance,
                             e.queue_depth)};
  }
  TraceShape operator()(const OrchestratorWarning& e) const {
    return {kTidScheduler, e.at, -1, util::str_format("WARN %s", e.what)};
  }
  TraceShape operator()(const ZoneRound& e) const {
    return {kTidZone, e.at, -1,
            e.zone < 0 ? util::str_format("round %d (all zones)", e.round)
                       : util::str_format("round %d zone%d", e.round, e.zone)};
  }
};

void append_escaped(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// Causal-slice context for the trace export: which spans have descendants,
// and when each span's causal subtree ends. An instant event whose span
// caused later work (a controller round that started migrations) is
// promoted to a duration slice covering its whole subtree, so the
// descendant slices visually nest inside it on the Perfetto timeline.
struct SpanNesting {
  std::unordered_map<SpanId, sim::Time> subtree_end;
  std::unordered_set<SpanId> has_children;
};

void append_trace_entry(const Event& event, const SpanNesting* nesting,
                        std::string& out) {
  TraceShape shape = std::visit(TraceVisitor{}, event);
  const SpanId span = event_span(event);
  if (nesting != nullptr && shape.dur < 0 && span != kNoSpan &&
      nesting->has_children.count(span) != 0) {
    const auto it = nesting->subtree_end.find(span);
    if (it != nesting->subtree_end.end() && it->second > shape.ts) {
      shape.dur = it->second - shape.ts;
    }
  }
  out += ",\n    {\"name\":";
  append_escaped(shape.name, out);
  out += util::str_format(",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%lld",
                          event_type_name(event), kPid, shape.tid,
                          static_cast<long long>(shape.ts));
  if (shape.dur >= 0) {
    out += util::str_format(",\"ph\":\"X\",\"dur\":%lld",
                            static_cast<long long>(shape.dur));
  } else {
    out += ",\"ph\":\"i\",\"s\":\"t\"";
  }
  // The full typed record rides along as args (span and parent included, so
  // flows can be followed from the detail pane), and Perfetto's detail pane
  // shows exactly what the JSONL export would.
  out += ",\"args\":{\"event\":";
  append_jsonl(event, out);
  out += "}}";
}

bool write_string(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(content.data(), 1, content.size(), f) ==
                     content.size();
  // Flush before the error check: a full disk often only surfaces here.
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  return (std::fclose(f) == 0) && wrote && flushed;
}

}  // namespace

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  // Address space only: slots are constructed (and their pages touched) as
  // events arrive, and the ring never reallocates or moves its events.
  ring_.reserve(capacity_);
}

void EventJournal::record(Event event) {
  if (size_ < capacity_) {
    // Not yet full: nothing has wrapped, so head_ is 0 and the ring holds
    // exactly the retained events.
    ring_.push_back(std::move(event));
    ++size_;
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

void EventJournal::for_each(const std::function<void(const Event&)>& fn) const {
  for_each_from(0, fn);
}

std::vector<Event> EventJournal::snapshot() const {
  std::vector<Event> out;
  out.reserve(size_);
  for_each([&out](const Event& e) { out.push_back(e); });
  return out;
}

std::string EventJournal::to_jsonl() const {
  std::string out;
  for_each([&out](const Event& e) {
    append_jsonl(e, out);
    out += '\n';
  });
  return out;
}

bool EventJournal::write_jsonl(const std::string& path) const {
  return write_string(path, to_jsonl());
}

std::string EventJournal::to_trace() const {
  std::string out = "{\"traceEvents\":[\n";
  // Track labels.
  const std::pair<int, const char*> tracks[] = {
      {kTidScheduler, "scheduler"},
      {kTidController, "controller"},
      {kTidMonitor, "net-monitor"},
      {kTidNetwork, "network"},
      {kTidFault, "fault"},
      {kTidZone, "zones"},
  };
  out += util::str_format(
      "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"args\":{\"name\":\"bass\"}}",
      kPid);
  for (const auto& [tid, name] : tracks) {
    out += util::str_format(
        ",\n    {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        kPid, tid, name);
  }
  // Span pre-pass: per-span slice ends and parent links, then every
  // event's end time propagated up its parent chain, so a root span's
  // subtree end covers e.g. the downtime slice of a migration it caused.
  SpanNesting nesting;
  std::unordered_map<SpanId, SpanId> parent_of;
  std::vector<std::pair<SpanId, sim::Time>> seeds;
  for_each([&](const Event& e) {
    const TraceShape shape = std::visit(TraceVisitor{}, e);
    const sim::Time end = shape.ts + std::max<sim::Duration>(shape.dur, 0);
    const SpanId span = event_span(e);
    const SpanId parent = event_parent(e);
    if (span != kNoSpan) {
      seeds.emplace_back(span, end);
      if (parent != kNoSpan) parent_of.emplace(span, parent);
    }
    if (parent != kNoSpan) {
      nesting.has_children.insert(parent);
      seeds.emplace_back(parent, end);
    }
  });
  for (const auto& [start, end] : seeds) {
    SpanId s = start;
    // Bounded walk: parent chains are shallow (fault → round → move), the
    // guard only protects against a corrupted journal's reference loop.
    for (int depth = 0; s != kNoSpan && depth < 64; ++depth) {
      auto [it, inserted] = nesting.subtree_end.emplace(s, end);
      if (!inserted && it->second < end) it->second = end;
      const auto p = parent_of.find(s);
      s = p == parent_of.end() ? kNoSpan : p->second;
    }
  }
  for_each([&](const Event& e) { append_trace_entry(e, &nesting, out); });
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool EventJournal::write_trace(const std::string& path) const {
  return write_string(path, to_trace());
}

bool parse_journal_line(const std::string& line,
                        std::vector<std::pair<std::string, std::string>>& fields) {
  fields.clear();
  std::size_t i = 0;
  const std::size_t n = line.size();
  auto skip_ws = [&] { while (i < n && (line[i] == ' ' || line[i] == '\t')) ++i; };
  skip_ws();
  if (i >= n || line[i] != '{') return false;
  ++i;
  skip_ws();
  if (i < n && line[i] == '}') return true;  // empty object
  while (i < n) {
    skip_ws();
    if (i >= n || line[i] != '"') return false;
    const std::size_t key_start = ++i;
    while (i < n && line[i] != '"') ++i;
    if (i >= n) return false;
    std::string key = line.substr(key_start, i - key_start);
    ++i;
    skip_ws();
    if (i >= n || line[i] != ':') return false;
    ++i;
    skip_ws();
    std::string value;
    if (i < n && line[i] == '"') {
      const std::size_t val_start = i++;
      while (i < n && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i >= n) return false;
      ++i;
      value = line.substr(val_start, i - val_start);
    } else {
      const std::size_t val_start = i;
      while (i < n && line[i] != ',' && line[i] != '}') ++i;
      value = util::trim(line.substr(val_start, i - val_start));
      if (value.empty()) return false;
    }
    fields.emplace_back(std::move(key), std::move(value));
    skip_ws();
    if (i >= n) return false;
    if (line[i] == '}') return true;
    if (line[i] != ',') return false;
    ++i;
  }
  return false;
}

}  // namespace bass::obs
