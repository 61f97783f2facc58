// bassbench: the BASS benchmark harness (README.md in this directory).
//
// Runs one workload as a host-side closed loop through the public entry
// points `bassctl serve` and `bassctl chaos` use:
//
//   city_churn, city_probe  zone::ShardedOrchestrator::from_ini / start /
//                           run_round / finish, one whole serve per repeat
//   mesh_chaos              exec::SweepArtifacts::load + exec::run_sweep,
//                           32 scenario runs per repeat on an exec::Pool
//
// Repeats of the same seed continue until --seconds of measuring have
// passed (and at least --min-repeats ran); every repeat's journal digest
// and failure counts must be identical. The last stdout line is one JSON
// object that run.py reads.
//
// Built twice from this file. The traced binary (BASSBENCH_TRACED) links
// the tests/alloc_probe.h allocation hook, records spans around every call
// it makes into the program, and replays single layer calls (routing table
// construction, scheduler placement) to attribute cost per layer. The
// untraced binary does neither, so its end-to-end numbers carry no
// tracing cost.
#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#ifdef BASSBENCH_TRACED
#include "alloc_probe.h"
#endif
#include "common.h"
#include "exec/pool.h"
#include "exec/sweep.h"
#include "net/routing.h"
#include "obs/recorder.h"
#include "scenario/scenario.h"
#include "sched/bass_scheduler.h"
#include "sched/network_view.h"
#include "util/ini.h"
#include "util/strings.h"
#include "workload/churn.h"
#include "zone/sharded.h"

namespace {

using namespace bass;

#ifdef BASSBENCH_TRACED
constexpr bool kTraced = true;
// Allocation count and bytes since construction, process-wide.
struct AllocMark {
  testing::AllocSnapshot snap = testing::take_alloc_snapshot();
  double allocs() const { return static_cast<double>(testing::allocations_since(snap)); }
  double bytes() const { return static_cast<double>(testing::bytes_since(snap)); }
};
#else
constexpr bool kTraced = false;
struct AllocMark {
  double allocs() const { return 0.0; }
  double bytes() const { return 0.0; }
};
#endif

// Runs per mesh_chaos repeat: one scenario run per derived seed.
constexpr int kMeshRuns = 32;
// Scheduler placements replayed per zone (or per mesh repeat).
constexpr int kReplayApps = 24;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch).count();
}

// ---- Spans (traced binary only) ----
//
// One span per call the harness makes into the program: name, start, end,
// parent and run (repeat) id. Kept in memory; written once at exit as a
// Chrome trace_event file that Perfetto opens.
class SpanLog {
 public:
  int open(const std::string& name, int parent, int run) {
    return add(name, now_us(), -1.0, parent, run);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }
  int add(const std::string& name, double start_us, double end_us, int parent,
          int run) {
    if (!kTraced) return -1;
    spans_.push_back({name, start_us, end_us, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n")
          << util::str_format(
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"run\":%d}}",
                 s.name.c_str(), s.run, s.start_us,
                 std::max(0.0, s.end_us - s.start_us), i, s.parent, s.run);
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    int run;
  };
  std::vector<Span> spans_;
};

SpanLog g_spans;

// RAII span around one call.
class SpanScope {
 public:
  SpanScope(const char* name, int parent, int run)
      : id_(g_spans.open(name, parent, run)) {}
  ~SpanScope() { g_spans.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

// ---- Small statistics helpers ----

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Highest whole percentile with at least ten samples beyond it (0 when
// fewer than eleven samples exist).
int tail_percentile(std::size_t n) {
  if (n < 11) return 0;
  return static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

// FNV-1a over `data`, continuing from `h` so several strings hash as one.
std::uint64_t fnv1a(const std::string& data, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  return util::str_format("%016llx", static_cast<unsigned long long>(h));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Deployments named ("dep N") by invariant_violation events, keyed by the
// journal's zone tag (city) or run index (mesh) so ids from different
// worlds stay distinct.
void collect_violating_deps(const std::string& journal, int run,
                            std::set<std::pair<int, int>>& out) {
  std::size_t pos = 0;
  while (pos < journal.size()) {
    std::size_t end = journal.find('\n', pos);
    if (end == std::string::npos) end = journal.size();
    const std::string_view line(journal.data() + pos, end - pos);
    pos = end + 1;
    if (line.find("\"type\":\"invariant_violation\"") == std::string_view::npos) {
      continue;
    }
    // Details read "dep N ..." or "'component' (dep N) ...".
    std::size_t dep = line.find("\"detail\":\"");
    while (dep != std::string_view::npos) {
      dep = line.find("dep ", dep + 1);
      if (dep != std::string_view::npos && dep + 4 < line.size() &&
          std::isdigit(static_cast<unsigned char>(line[dep + 4]))) {
        break;
      }
    }
    if (dep == std::string_view::npos) continue;
    int world = run;
    const std::size_t zone = line.rfind("\"zone\":");
    if (zone != std::string_view::npos) {
      world = std::atoi(std::string(line.substr(zone + 7, 8)).c_str());
    }
    out.insert({world, std::atoi(std::string(line.substr(dep + 4, 12)).c_str())});
  }
}

// ---- Per-repeat results ----

// App-level outcome counts; must repeat exactly for a seed.
struct Outcome {
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t cancelled = 0;
  std::int64_t migrations = 0;
  std::int64_t queue_peak = 0;
  std::int64_t violations = 0;
  std::int64_t violating_deps = 0;
  std::int64_t faults = 0;

  std::int64_t failed() const { return rejected + cancelled + violating_deps; }
  double failed_frac() const {
    return arrivals > 0 ? static_cast<double>(failed()) / static_cast<double>(arrivals) : 0.0;
  }
  bool operator==(const Outcome&) const = default;
};

struct Repeat {
  double setup_s = 0;
  double wall_s = 0;
  double loop_s = 0;               // round loop (city) or sweep (mesh) wall
  std::vector<double> step_ms;     // per run_round() / per scenario run
  std::int64_t steps = 0;          // closed-loop steps attempted
  std::int64_t step_errors = 0;    // steps whose call returned an error
  std::string digest;
  Outcome outcome;
  std::map<std::string, double> layer;  // traced binary only
};

// ---- Metric readers over obs registries ----

// Sum of every `name` timer in the registry (all label sets), µs.
double timer_sum(const obs::MetricsRegistry& m, const std::string& name) {
  double sum = 0;
  m.for_each_log_histogram([&](const std::string& n, const obs::Labels&,
                               const obs::LogHistogram& h) {
    if (n == name) sum += h.sum();
  });
  return sum;
}

obs::LogHistogram merged_timer(const obs::MetricsRegistry& m, const std::string& name) {
  obs::LogHistogram out;
  m.for_each_log_histogram([&](const std::string& n, const obs::Labels&,
                               const obs::LogHistogram& h) {
    if (n == name) out.merge(h);
  });
  return out;
}

double counter_sum(const obs::MetricsRegistry& m, const std::string& name) {
  double total = 0;
  m.for_each_counter([&](const std::string& n, const obs::Labels&, const obs::Counter& c) {
    if (n == name) total += static_cast<double>(c.value());
  });
  return total;
}

// Percentile that reads 0 for an empty histogram (LogHistogram gives NaN).
double pct(const obs::LogHistogram& h, double q) {
  return h.count() > 0 ? h.percentile(q) : 0.0;
}

// Layer metrics read from one registry that holds a whole run's (or a whole
// city's, zone-labelled) instruments.
void registry_layers(const obs::MetricsRegistry& m, std::map<std::string, double>& L) {
  const obs::LogHistogram place = merged_timer(m, "sched.place_us");
  L["sched.place_us.p50"] += pct(place, 0.50);
  L["sched.place_us.p99"] += pct(place, 0.99);
  L["sched.place_us.count"] += static_cast<double>(place.count());
  L["sched.pack_us.sum"] +=
      timer_sum(m, "sched.sequential_pack_us") + timer_sum(m, "sched.path_pack_us");
  L["net.solve_us.p99"] += pct(merged_timer(m, "net.maxmin.solve_us"), 0.99);
  L["monitor.probes"] += counter_sum(m, "monitor.probes");
  const obs::LogHistogram decision = merged_timer(m, "orchestrator.decision_us");
  L["controller.decision_us.p50"] += pct(decision, 0.50);
  L["controller.decision_us.p99"] += pct(decision, 0.99);
  L["controller.decisions"] += static_cast<double>(decision.count());
  L["controller.select_us.sum"] += timer_sum(m, "controller.select_candidates_us");
  L["obs.flush_us.sum"] += timer_sum(m, "obs.journal_flush_us");
  L["fault.injections"] += counter_sum(m, "fault.injections");
}

void network_layers(const net::Network& network, std::map<std::string, double>& L) {
  const net::AllocStats& s = network.alloc_stats();
  L["net.reallocations"] += static_cast<double>(s.reallocations);
  L["net.flows_touched"] += static_cast<double>(s.flows_touched);
  L["net.alloc_s"] += s.alloc_seconds;
}

void outcome_layers(const Outcome& o, std::map<std::string, double>& L) {
  L["core.arrivals"] = static_cast<double>(o.arrivals);
  L["core.admitted"] = static_cast<double>(o.admitted);
  L["core.rejected"] = static_cast<double>(o.rejected);
  L["core.cancelled"] = static_cast<double>(o.cancelled);
  L["core.migrations"] = static_cast<double>(o.migrations);
  L["core.queue_peak"] = static_cast<double>(o.queue_peak);
  L["core.failed_frac"] = o.failed_frac();
  L["fault.violations"] = static_cast<double>(o.violations);
}

// Ratios derived from summed counts, once every world has been folded in.
void finish_layers(std::map<std::string, double>& L) {
  const double reallocs = L["net.reallocations"];
  L["net.flows_per_realloc"] = reallocs > 0 ? L["net.flows_touched"] / reallocs : 0.0;
  L.erase("net.flows_touched");
  const double probes = L["monitor.probes"];
  L["monitor.reallocs_per_probe"] = probes > 0 ? reallocs / probes : 0.0;
}

// Replays: construct a routing table over `topo`, then place fresh churn
// apps against an end-of-run cluster — each call timed and alloc-counted.
void replay_routing(const net::Network& network, int parent, int run,
                    std::map<std::string, double>& L) {
  SpanScope span("replay.routing", parent, run);
  AllocMark mark;
  const double t0 = now_us();
  auto table = std::make_unique<net::RoutingTable>(network.topology(),
                                                   network.routing().policy());
  L["routing.build_ms"] += (now_us() - t0) / 1e3;
  L["routing.allocs"] += mark.allocs();
  L["routing.bytes"] += mark.bytes();
}

void replay_sched(const cluster::ClusterState& cluster, const net::Network& network,
                  double resource_scale, std::uint64_t seed, int parent, int run,
                  std::vector<double>& replay_us, std::vector<double>& allocs) {
  std::vector<net::NodeId> nodes = cluster.schedulable_nodes();
  if (nodes.empty()) nodes = cluster.nodes();
  const sched::BassScheduler scheduler(sched::Heuristic::kAuto);
  const sched::LiveNetworkView view(network);
  obs::Recorder sink(obs::RecorderConfig{});
  obs::ScopedGlobalRecorder bind(&sink);
  for (int i = 0; i < kReplayApps; ++i) {
    const app::AppGraph app = workload::make_churn_app(
        static_cast<workload::AppFamily>(i % workload::kAppFamilyCount),
        1000000 + i, resource_scale, seed, nodes);
    SpanScope span("replay.sched", parent, run);
    AllocMark mark;
    const double t0 = now_us();
    const auto placed = scheduler.schedule(app, cluster, view);
    replay_us.push_back(now_us() - t0);
    allocs.push_back(mark.allocs());
    (void)placed;
  }
}

// ---- Workloads ----

struct Workload {
  std::string name;
  std::string ini;
  bool city = true;
  std::size_t jobs = 1;
};

std::size_t cap_jobs(std::size_t want) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(want, hw);
}

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> kWorkloads = {
      {"city_churn", "city_churn.ini", true, 1},
      {"city_probe", "city_probe.ini", true, cap_jobs(4)},
      {"mesh_chaos", "mesh_chaos.ini", false, cap_jobs(4)},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// One whole sharded serve: parse, build, warm up, rounds, finish.
util::Expected<Repeat> city_repeat(const std::string& path, std::uint64_t seed,
                                   std::size_t jobs, int run) {
  Repeat rep;
  const SpanScope top("serve", -1, run);
  const double t_start = now_us();

  util::IniFile ini;
  {
    SpanScope span("parse", top.id(), run);
    auto loaded = util::load_ini(path);
    if (!loaded.ok()) return util::make_error(loaded.error());
    ini = loaded.take();
    exec::apply_overrides(ini, {{"serve", "seed", std::to_string(seed)}});
  }
  if (kTraced) {
    // The world build below parses the topology itself; this extra call
    // only attributes the generator's share of it.
    SpanScope span("topology", top.id(), run);
    const double t0 = now_us();
    auto topo = scenario::build_topology(ini);
    if (!topo.ok()) return util::make_error(topo.error());
    rep.layer["topology.build_ms"] = (now_us() - t0) / 1e3;
  }

  std::unique_ptr<zone::ShardedOrchestrator> orch;
  {
    SpanScope span("zone.build", top.id(), run);
    const double t0 = now_us();
    auto built = zone::ShardedOrchestrator::from_ini(ini, jobs);
    if (!built.ok()) return util::make_error(built.error());
    orch = built.take();
    rep.layer["zone.build_ms"] = (now_us() - t0) / 1e3;
  }
  {
    SpanScope span("zone.warmup", top.id(), run);
    const double t0 = now_us();
    orch->start();
    rep.layer["zone.warmup_ms"] = (now_us() - t0) / 1e3;
  }
  rep.setup_s = (now_us() - t_start) / 1e6;

  // Rounds before two mean lifetimes have passed are warm-up: the city is
  // still filling with apps.
  const auto* serve = ini.first_of_kind("serve");
  const auto* zsec = ini.first_of_kind("zones");
  const double lifetime_s = serve->number_or("mean_lifetime_s", 300);
  const double round_s = zsec->number_or("round_interval_s", 10);
  const int warmup_rounds = static_cast<int>(std::ceil(2.0 * lifetime_s / round_s));
  const int rounds = orch->rounds_total();
  if (rounds <= warmup_rounds) {
    return util::make_error("scenario has no rounds after warm-up");
  }

  // Measured-window sums of the layer timers the round splits into.
  const auto window_sums = [&orch] {
    std::map<std::string, double> s;
    for (int z = 0; z < orch->zones(); ++z) {
      const obs::MetricsRegistry& m = orch->zone_recorder(z).metrics();
      s["sched"] += timer_sum(m, "sched.place_us");
      s["net"] += timer_sum(m, "net.alloc_pass_us");
      s["controller"] += timer_sum(m, "orchestrator.decision_us");
    }
    return s;
  };
  std::map<std::string, double> before;
  zone::ShardedOrchestrator::PhaseWalls walls_before{};
  std::vector<double> full_ms, tick_ms, reconcile_ms, allocs;
  double measured_us = 0;

  const double t_loop = now_us();
  for (int r = 0; r < rounds; ++r) {
    const bool measured = r >= warmup_rounds;
    if (kTraced && r == warmup_rounds) {
      before = window_sums();
      walls_before = orch->phase_walls();
    }
    const zone::ShardedOrchestrator::PhaseWalls w0 = orch->phase_walls();
    const int span = g_spans.open("round", top.id(), run);
    AllocMark mark;
    const double t0 = now_us();
    orch->run_round();
    const double dt = now_us() - t0;
    const double round_allocs = mark.allocs();
    g_spans.close(span);
    ++rep.steps;
    if (kTraced) {
      // Children from the phase-wall deltas, laid out in run_round()'s
      // order: quiescent ticks, full zone passes, reconciliation.
      const zone::ShardedOrchestrator::PhaseWalls w1 = orch->phase_walls();
      double at = t0;
      const std::pair<const char*, double> phases[] = {
          {"zone.tick", w1.tick_us - w0.tick_us},
          {"zone.full", w1.advance_us - w0.advance_us},
          {"zone.reconcile", w1.reconcile_us - w0.reconcile_us}};
      for (const auto& [name, us] : phases) {
        g_spans.add(name, at, at + us, span, run);
        at += us;
      }
      if (measured) {
        tick_ms.push_back(phases[0].second / 1e3);
        full_ms.push_back(phases[1].second / 1e3);
        reconcile_ms.push_back(phases[2].second / 1e3);
        allocs.push_back(round_allocs);
      }
    }
    if (measured) {
      rep.step_ms.push_back(dt / 1e3);
      measured_us += dt;
    }
  }
  rep.loop_s = (now_us() - t_loop) / 1e6;

  if (kTraced) {
    const std::map<std::string, double> after = window_sums();
    const zone::ShardedOrchestrator::PhaseWalls walls_after = orch->phase_walls();
    const double attributed =
        (after.at("sched") - before.at("sched")) + (after.at("net") - before.at("net")) +
        (after.at("controller") - before.at("controller")) +
        (walls_after.reconcile_us - walls_before.reconcile_us) +
        (walls_after.tick_us - walls_before.tick_us);
    rep.layer["round.other_frac"] = measured_us > 0 ? 1.0 - attributed / measured_us : 0.0;
    rep.layer["zone.full_ms"] = median(full_ms);
    rep.layer["zone.tick_ms"] = median(tick_ms);
    rep.layer["zone.reconcile_ms"] = median(reconcile_ms);
    rep.layer["alloc.per_round"] = median(allocs);
  }

  {
    SpanScope span("zone.finish", top.id(), run);
    const double t0 = now_us();
    orch->finish();
    rep.layer["zone.finish_ms"] = (now_us() - t0) / 1e3;
  }
  rep.wall_s = (now_us() - t_start) / 1e6;

  // Correctness: digest of the merged journal; failure accounting.
  const std::string journal = orch->merged_journal();
  rep.digest = hex(fnv1a(journal));
  const zone::ShardedReport& report = orch->report();
  std::set<std::pair<int, int>> deps;
  collect_violating_deps(journal, -1, deps);
  Outcome& o = rep.outcome;
  o.arrivals = report.serve_arrivals;
  o.admitted = report.serve_admitted;
  o.rejected = report.serve_rejected;
  o.cancelled = report.serve_cancelled;
  o.migrations = static_cast<std::int64_t>(report.migrations);
  o.queue_peak = report.serve_peak_queue_depth;
  o.violations = report.invariant_violations;
  o.violating_deps = static_cast<std::int64_t>(deps.size());
  o.faults = static_cast<std::int64_t>(counter_sum(orch->recorder().metrics(), "fault.injections"));

  if (kTraced) {
    std::map<std::string, double>& L = rep.layer;
    const obs::MetricsRegistry& m = orch->recorder().metrics();
    registry_layers(m, L);
    std::vector<double> zone_wall;
    for (int z = 0; z < orch->zones(); ++z) {
      network_layers(orch->zone_network(z), L);
      zone_wall.push_back(
          orch->recorder().metrics().log_timer_us("zone.round_wall_us",
                                                  {{"zone", std::to_string(z)}}).sum());
    }
    finish_layers(L);
    double mean_wall = 0;
    for (const double w : zone_wall) mean_wall += w / static_cast<double>(zone_wall.size());
    L["zone.imbalance"] =
        mean_wall > 0 ? *std::max_element(zone_wall.begin(), zone_wall.end()) / mean_wall : 0.0;
    const double zone_rounds =
        static_cast<double>(report.zone_rounds_full + report.zone_rounds_skipped);
    L["zone.skipped_frac"] =
        zone_rounds > 0 ? static_cast<double>(report.zone_rounds_skipped) / zone_rounds : 0.0;
    L["zone.border_rebuilds"] = static_cast<double>(report.border_rebuilds);
    L["obs.journal_bytes"] = static_cast<double>(journal.size());
    outcome_layers(o, L);

    const double scale = serve->number_or("resource_scale", 0.25);
    std::vector<double> replay_us, replay_allocs;
    for (int z = 0; z < orch->zones(); ++z) {
      replay_routing(orch->zone_network(z), top.id(), run, L);
      replay_sched(orch->zone_orchestrator(z).cluster(), orch->zone_network(z), scale, seed,
                   top.id(), run, replay_us, replay_allocs);
    }
    L["sched.replay_us.p50"] = median(replay_us);
    L["sched.allocs_per_place"] = median(replay_allocs);
  }
  return rep;
}

// Seed of run i in a mesh_chaos repeat for benchmark seed `seed`: disjoint
// blocks of kMeshRuns, so two benchmark seeds share no run.
std::uint64_t mesh_run_seed(std::uint64_t seed, int i) {
  return seed * kMeshRuns + static_cast<std::uint64_t>(i);
}

std::vector<exec::RunSpec> mesh_specs(std::uint64_t seed) {
  std::vector<exec::RunSpec> specs;
  for (int i = 0; i < kMeshRuns; ++i) {
    const std::string s = std::to_string(mesh_run_seed(seed, i));
    specs.push_back({"seed " + s, {{"serve", "seed", s}, {"chaos", "seed", s}}});
  }
  return specs;
}

void fold_run(const scenario::RunReport& r, const std::string& journal, int run_index,
              Outcome& o, std::set<std::pair<int, int>>& deps) {
  o.arrivals += r.serve_arrivals;
  o.admitted += r.serve_admitted;
  o.rejected += r.serve_rejected;
  o.cancelled += r.serve_cancelled;
  o.migrations += static_cast<std::int64_t>(r.migrations);
  o.queue_peak = std::max<std::int64_t>(o.queue_peak, r.serve_peak_queue_depth);
  o.violations += r.invariant_violations;
  o.faults += r.faults_injected;
  collect_violating_deps(journal, run_index, deps);
}

// Untraced: the runs go through exec::run_sweep one run per call on an
// exec::Pool of `jobs` workers — a closed loop per worker, each run timed.
// Traced: each run serially through Scenario::from_ini + run(), the calls
// run_sweep makes, so build and run are timed and alloc-counted apart.
util::Expected<Repeat> mesh_repeat(const std::string& path, std::uint64_t seed,
                                   std::size_t jobs, int run) {
  Repeat rep;
  const SpanScope top("chaos", -1, run);
  const double t_start = now_us();
  std::unique_ptr<exec::SweepArtifacts> artifacts;
  {
    SpanScope span("sweep.load", top.id(), run);
    auto loaded = exec::SweepArtifacts::load(path);
    if (!loaded.ok()) return util::make_error(loaded.error());
    artifacts = std::make_unique<exec::SweepArtifacts>(loaded.take());
  }
  rep.setup_s = (now_us() - t_start) / 1e6;

  const std::vector<exec::RunSpec> specs = mesh_specs(seed);
  std::vector<std::string> journals(specs.size());
  std::vector<scenario::RunReport> reports(specs.size());
  std::vector<std::string> errors(specs.size());
  rep.step_ms.assign(specs.size(), 0.0);
  std::map<std::string, double>& L = rep.layer;
  std::vector<double> build_ms, run_ms, run_allocs;

  const double t_loop = now_us();
  if (!kTraced) {
    const auto one = [&](std::size_t i) {
      const double t0 = now_us();
      exec::RunOutcome out = std::move(exec::run_sweep(*artifacts, {specs[i]}, 1)[0]);
      rep.step_ms[i] = (now_us() - t0) / 1e3;
      errors[i] = std::move(out.error);
      journals[i] = std::move(out.journal);
      reports[i] = out.report;
    };
    if (jobs <= 1) {
      for (std::size_t i = 0; i < specs.size(); ++i) one(i);
    } else {
      exec::Pool pool(jobs);
      for (std::size_t i = 0; i < specs.size(); ++i) pool.submit([&one, i] { one(i); });
      pool.wait();
    }
  } else {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double t_run = now_us();
      util::IniFile ini = *artifacts->ini;
      exec::apply_overrides(ini, specs[i].overrides);
      AllocMark mark;
      std::unique_ptr<scenario::Scenario> scene;
      {
        SpanScope span("scenario.build", top.id(), run);
        const double t0 = now_us();
        auto built = scenario::Scenario::from_ini(ini, artifacts->assets.get());
        build_ms.push_back((now_us() - t0) / 1e3);
        if (!built.ok()) {
          errors[i] = built.error();
          continue;
        }
        scene = built.take();
      }
      {
        SpanScope span("scenario.run", top.id(), run);
        const double t0 = now_us();
        obs::ScopedGlobalRecorder bind(&scene->recorder());
        reports[i] = scene->run();
        run_ms.push_back((now_us() - t0) / 1e3);
      }
      journals[i] = scene->recorder().journal().to_jsonl();
      run_allocs.push_back(mark.allocs());
      rep.step_ms[i] = (now_us() - t_run) / 1e3;
      registry_layers(scene->recorder().metrics(), L);
      network_layers(scene->network(), L);
      if (i == 0) {
        replay_routing(scene->network(), top.id(), run, L);
        std::vector<double> replay_us, replay_allocs;
        const auto* serve = ini.first_of_kind("serve");
        replay_sched(scene->orchestrator().cluster(), scene->network(),
                     serve->number_or("resource_scale", 0.25), mesh_run_seed(seed, 0),
                     top.id(), run, replay_us, replay_allocs);
        L["sched.replay_us.p50"] = median(replay_us);
        L["sched.allocs_per_place"] = median(replay_allocs);
      }
    }
  }
  rep.loop_s = (now_us() - t_loop) / 1e6;
  rep.wall_s = (now_us() - t_start) / 1e6;
  rep.steps = static_cast<std::int64_t>(specs.size());

  // Digest of the run journals concatenated in seed order.
  std::set<std::pair<int, int>> deps;
  std::uint64_t digest = fnv1a("");
  std::size_t journal_bytes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!errors[i].empty()) {
      std::fprintf(stderr, "run %s: %s\n", specs[i].label.c_str(), errors[i].c_str());
      ++rep.step_errors;
      continue;
    }
    fold_run(reports[i], journals[i], static_cast<int>(i), rep.outcome, deps);
    digest = fnv1a(journals[i], digest);
    journal_bytes += journals[i].size();
  }
  rep.outcome.violating_deps = static_cast<std::int64_t>(deps.size());
  rep.digest = hex(digest);

  if (kTraced) {
    // Per-run registries were summed above; percentiles become per-run
    // means, counts stay totals.
    const double n = static_cast<double>(specs.size());
    for (const char* key : {"sched.place_us.p50", "sched.place_us.p99", "net.solve_us.p99",
                            "controller.decision_us.p50", "controller.decision_us.p99"}) {
      L[key] /= n;
    }
    finish_layers(L);
    L["scenario.build_ms"] = median(build_ms);
    L["scenario.run_ms.p50"] = quantile(run_ms, 0.5);
    L["scenario.run_ms.p90"] = quantile(run_ms, 0.9);
    L["exec.allocs_per_run"] = median(run_allocs);
    L["obs.journal_bytes"] = static_cast<double>(journal_bytes);
    outcome_layers(rep.outcome, L);
  }
  return rep;
}

// ---- Output ----

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return util::str_format("%.9g", v);
}

struct Args {
  std::string workload;
  std::string scenarios = "bassbench/scenarios";
  std::string spans;
  std::uint64_t seed = 1;
  double seconds = 10;
  long jobs = -1;  // -1 = the workload's own
  int min_repeats = 2;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--scenarios") {
      a.scenarios = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--jobs") {
      a.jobs = std::strtol(v, &end, 10);
    } else if (k == "--min-repeats") {
      a.min_repeats = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0 && a.min_repeats >= 1 && a.jobs != 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bassbench --workload city_churn|city_probe|mesh_chaos --seed N\n"
               "                 --seconds S [--jobs J] [--min-repeats K]\n"
               "                 [--scenarios DIR] [--spans FILE (traced binary)]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const Workload* wl = find_workload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return usage();
  }
  util::set_log_level(util::LogLevel::kError);
  const std::size_t jobs = args.jobs > 0 ? static_cast<std::size_t>(args.jobs) : wl->jobs;
  const std::string path = args.scenarios + "/" + wl->ini;

  // Provenance: the same build.info row every BENCH_*.json carries.
  obs::MetricsRegistry provenance;
  bench::emit_build_info(provenance);
  std::string build_json;
  bool sanitized = false;
  provenance.for_each_gauge([&](const std::string&, const obs::Labels& labels,
                                const obs::Gauge&) {
    for (const auto& [k, v] : labels) {
      std::string escaped;
      for (const char c : v) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      build_json += (build_json.empty() ? "" : ",") + ("\"" + k + "\":\"" + escaped + "\"");
      if (k == "sanitizer" && v == "on") sanitized = true;
    }
  });

  // Repeat while another repeat, as long as the last one, still fits in
  // --seconds, so a run measures for about --seconds whatever a repeat
  // costs.
  std::vector<Repeat> reps;
  const double t0 = now_us();
  double last_us = 0;
  while (static_cast<int>(reps.size()) < args.min_repeats ||
         (now_us() - t0 + last_us) / 1e6 <= args.seconds) {
    const int run = static_cast<int>(reps.size());
    const double t_rep = now_us();
    auto rep = wl->city ? city_repeat(path, args.seed, jobs, run)
                        : mesh_repeat(path, args.seed, jobs, run);
    if (!rep.ok()) {
      std::fprintf(stderr, "bassbench: %s: %s\n", args.workload.c_str(),
                   rep.error().c_str());
      return 1;
    }
    reps.push_back(rep.take());
    last_us = now_us() - t_rep;
  }

  // Correctness: every repeat of the seed produced the same journal and
  // the same outcome counts.
  bool digest_stable = true;
  bool counts_stable = true;
  std::int64_t steps = 0, step_errors = 0;
  std::vector<double> setup_s, wall_s, loop_s, step_ms;
  for (const Repeat& r : reps) {
    digest_stable = digest_stable && r.digest == reps.front().digest;
    counts_stable = counts_stable && r.outcome == reps.front().outcome;
    steps += r.steps;
    step_errors += r.step_errors;
    setup_s.push_back(r.setup_s);
    wall_s.push_back(r.wall_s);
    loop_s.push_back(r.loop_s);
  }
  // Repeats do identical work step for step (the digests agree), so each
  // step's time is its median over the repeats: a host hiccup during one
  // repeat does not reach the percentiles, which are taken over steps.
  for (std::size_t j = 0; j < reps.front().step_ms.size(); ++j) {
    std::vector<double> v;
    for (const Repeat& r : reps) {
      if (j < r.step_ms.size()) v.push_back(r.step_ms[j]);
    }
    step_ms.push_back(median(v));
  }
  const Outcome& o = reps.front().outcome;
  std::vector<double> runs_per_s;
  if (!wl->city) {
    for (const double s : loop_s) runs_per_s.push_back(kMeshRuns / s);
  }

  struct Metric {
    std::string name;
    double value;
    const char* unit;
    std::size_t n;
    bool timing;
  };
  const std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s", setup_s.size(), true},
      {"wall_s", median(wall_s), "s", wall_s.size(), true},
      {"round_ms_p50", quantile(step_ms, 0.5), "ms", step_ms.size(), true},
      {"round_ms_p90", quantile(step_ms, 0.9), "ms", step_ms.size(), true},
      {"runs_per_s", median(runs_per_s), "1/s", runs_per_s.size(), true},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1, false},
      {"failed_frac", o.failed_frac(), "ratio", static_cast<std::size_t>(o.arrivals), false},
  };

  // Human-readable report.
  std::printf("bassbench %s seed %llu jobs %zu %s, %zu repeats\n", wl->name.c_str(),
              static_cast<unsigned long long>(args.seed), jobs,
              kTraced ? "traced" : "untraced", reps.size());
  std::printf("build.info {%s}\n", build_json.c_str());
  for (const Metric& m : e2e) {
    if (m.name == "runs_per_s" && wl->city) continue;
    std::printf("  %-13s %12.6g %-5s n=%zu%s\n", m.name.c_str(), m.value, m.unit, m.n,
                m.timing && sanitized ? "  INVALID (sanitizer build)" : "");
  }
  const int tail = tail_percentile(step_ms.size());
  if (tail > 0) {
    std::printf("  round_ms tail: p%d %.6g ms (highest percentile with >=10 samples beyond,"
                " n=%zu)\n",
                tail, quantile(step_ms, tail / 100.0), step_ms.size());
  }
  std::printf("  arrivals %lld: admitted %lld, rejected %lld, cancelled %lld,"
              " %lld invariant violations naming %lld deployments\n",
              static_cast<long long>(o.arrivals), static_cast<long long>(o.admitted),
              static_cast<long long>(o.rejected), static_cast<long long>(o.cancelled),
              static_cast<long long>(o.violations), static_cast<long long>(o.violating_deps));
  std::printf("  journal digest %s (%s across repeats), counts %s\n",
              reps.front().digest.c_str(), digest_stable ? "identical" : "MISMATCH",
              counts_stable ? "identical" : "MISMATCH");

  std::map<std::string, double> layer;
  if (kTraced) {
    for (const auto& [key, unused] : reps.front().layer) {
      std::vector<double> v;
      for (const Repeat& r : reps) {
        const auto it = r.layer.find(key);
        if (it != r.layer.end()) v.push_back(it->second);
      }
      layer[key] = median(v);
    }
    if (!args.spans.empty()) {
      if (!g_spans.write(args.spans)) {
        std::fprintf(stderr, "cannot write spans to '%s'\n", args.spans.c_str());
        return 1;
      }
      std::printf("  %zu spans -> %s\n", g_spans.size(), args.spans.c_str());
    }
  }

  std::string out = util::str_format(
      "{\"workload\":\"%s\",\"seed\":%llu,\"jobs\":%zu,\"traced\":%s,\"repeats\":%zu,"
      "\"build\":{%s},\"timing_valid\":%s,\"digest\":\"%s\",\"digest_stable\":%s,"
      "\"counts_stable\":%s,\"steps\":%lld,\"step_errors\":%lld,\"loop_s\":%s,",
      wl->name.c_str(), static_cast<unsigned long long>(args.seed), jobs,
      kTraced ? "true" : "false", reps.size(), build_json.c_str(),
      sanitized ? "false" : "true", reps.front().digest.c_str(),
      digest_stable ? "true" : "false", counts_stable ? "true" : "false",
      static_cast<long long>(steps), static_cast<long long>(step_errors),
      json_number(median(loop_s)).c_str());
  out += "\"e2e\":{";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const Metric& m = e2e[i];
    out += util::str_format("%s\"%s\":{\"value\":%s,\"unit\":\"%s\",\"n\":%zu}",
                            i == 0 ? "" : ",", m.name.c_str(),
                            m.timing && sanitized ? "null" : json_number(m.value).c_str(),
                            m.unit, m.n);
  }
  out += "},\"layer\":{";
  bool first = true;
  for (const auto& [key, value] : layer) {
    out += util::str_format("%s\"%s\":%s", first ? "" : ",", key.c_str(),
                            json_number(value).c_str());
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return digest_stable && counts_stable && step_errors == 0 ? 0 : 3;
}
