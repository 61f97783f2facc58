// bassctl — operator CLI for the BASS simulator.
//
//   bassctl validate <scenario.ini>        check a scenario without running
//   bassctl run <scenario.ini> [--journal out.jsonl] [--metrics out.json]
//               [--trace out.trace.json] [--prom out.prom]
//                                          run it and print the report;
//                                          optionally export the event
//                                          journal (JSON Lines), metrics
//                                          snapshot (JSON or Prometheus
//                                          text), and Perfetto trace
//   bassctl events <journal.jsonl> [--type T] [--since S] [--until S]
//                  [--last N]               filter/pretty-print a journal
//   bassctl report <journal.jsonl> [--metrics metrics.json] [--prom out.prom]
//                                          post-mortem: event census,
//                                          decision-latency percentiles,
//                                          fault timeline, and causal
//                                          round->decision->migration chains.
//                                          Sharded artifacts (merged journal,
//                                          zone-labelled metrics) additionally
//                                          get a per-zone census and per-zone
//                                          + pooled latency rows
//   bassctl journal query <journal.jsonl> [--type T] [--span N]
//                  [--since-us U] [--last N]
//                                          raw JSONL queries; --span selects
//                                          a causal span and every event it
//                                          transitively caused
//   bassctl serve <scenario.ini> [--duration S] [--arrival-rate R]
//                 [--mode static|adaptive|dynamic] [--seed N]
//                 [--policy fifo|reject|defer] [--journal out.jsonl]
//                 [--metrics out.json] [--trace out.trace.json] [--prom out.prom]
//                                          long-running control-plane mode:
//                                          churn arrivals/departures through
//                                          the admission queue; prints
//                                          admission + decision latency
//                                          percentiles. Flags override the
//                                          ini's [serve]/[run] sections (a
//                                          missing [serve] section is
//                                          created), so any mesh-only
//                                          scenario can serve. With a
//                                          [zones] section the run shards
//                                          across per-zone solver worlds on
//                                          --jobs workers (default 1;
//                                          0 = one per zone) with border
//                                          reconciliation between rounds
//   bassctl dot <scenario.ini> [out.dot]   export the initial placement
//   bassctl trace --mean-mbps M [--stddev-frac F] [--duration-s S]
//                 [--fades] [--seed N] [--out trace.csv]
//                                          generate a bandwidth trace CSV
//   bassctl chaos <scenario.ini> [--seeds N] [--base-seed B] [--jobs N]
//                 [--journal-dir DIR] [--flight-dir DIR]
//                                          run the scenario's [chaos]/[fault]
//                                          plan under N seeds (fanned across
//                                          N worker threads), report
//                                          recovery-time and failed-placement
//                                          stats, verify per-seed determinism
//   bassctl sweep <scenario.ini> [--thresholds a,b,..] [--headrooms a,b,..]
//                 [--seeds N] [--base-seed B] [--jobs N] [--out sweep.json]
//                                          parameter-grid sweep over the
//                                          migration controller (threshold ×
//                                          headroom × seed), in parallel,
//                                          with deterministic output order
//
// The global --log-level {debug,info,warn,error,off} flag (or the BASS_LOG
// environment variable) controls library logging on stderr.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <variant>
#include <vector>

#include "app/dot.h"
#include "exec/sweep.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "trace/generator.h"
#include "util/logging.h"
#include "util/strings.h"
#include "zone/sharded.h"

using namespace bass;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  bassctl [--log-level L] validate <scenario.ini>\n"
               "  bassctl [--log-level L] run <scenario.ini> [--journal out.jsonl]\n"
               "          [--metrics out.json] [--trace out.trace.json] [--prom out.prom]\n"
               "  bassctl events <journal.jsonl> [--type T] [--since S] [--until S]\n"
               "                 [--last N]\n"
               "  bassctl report <journal.jsonl> [--metrics metrics.json]\n"
               "                 [--prom out.prom]\n"
               "  bassctl journal query <journal.jsonl> [--type T] [--span N]\n"
               "                 [--since-us U] [--last N]\n"
               "  bassctl serve <scenario.ini> [--duration S] [--arrival-rate R]\n"
               "                [--jobs N]\n"
               "                [--mode static|adaptive|dynamic] [--seed N]\n"
               "                [--policy fifo|reject|defer] [--journal out.jsonl]\n"
               "                [--metrics out.json] [--trace out.trace.json]\n"
               "                [--prom out.prom]\n"
               "  bassctl dot <scenario.ini> [out.dot]\n"
               "  bassctl trace --mean-mbps M [--stddev-frac F] [--duration-s S]\n"
               "                [--fades] [--seed N] [--out trace.csv]\n"
               "  bassctl chaos <scenario.ini> [--seeds N] [--base-seed B]\n"
               "                [--jobs N] [--journal-dir DIR] [--flight-dir DIR]\n"
               "  bassctl sweep <scenario.ini> [--thresholds a,b,..] [--headrooms a,b,..]\n"
               "                [--seeds N] [--base-seed B] [--jobs N] [--out sweep.json]\n");
  return 2;
}

// Strict integer parsing for count-like flags: the whole token must be a
// base-10 unsigned integer within range. Unlike atoi, garbage ("abc",
// "12x", "", negatives) is rejected with a clear message instead of
// silently collapsing to 0.
bool parse_u64_flag(const char* flag, const std::string& text,
                    std::uint64_t min_value, std::uint64_t& out) {
  const char* begin = text.c_str();
  const char* end = begin + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min_value) {
    std::fprintf(stderr, "bassctl: %s expects an integer >= %llu, got '%s'\n",
                 flag, static_cast<unsigned long long>(min_value), text.c_str());
    return false;
  }
  out = value;
  return true;
}

// Comma-separated list of fractions in (0, 1], e.g. "0.25,0.5,0.95".
bool parse_fraction_list(const char* flag, const std::string& text,
                         std::vector<double>& out) {
  out.clear();
  for (const std::string& piece : util::split(text, ',')) {
    const std::string token = util::trim(piece);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() || value <= 0 ||
        value > 1) {
      std::fprintf(stderr,
                   "bassctl: %s expects comma-separated fractions in (0, 1], got '%s'\n",
                   flag, text.c_str());
      return false;
    }
    out.push_back(value);
  }
  if (out.empty()) {
    std::fprintf(stderr, "bassctl: %s expects at least one value\n", flag);
    return false;
  }
  return true;
}

int cmd_validate(const std::string& path) {
  auto s = scenario::Scenario::from_file(path);
  if (!s.ok()) {
    std::fprintf(stderr, "INVALID: %s\n", s.error().c_str());
    return 1;
  }
  auto& scene = *s.value();
  if (scene.serving() != nullptr) {
    std::printf("OK: serving scenario on %zu nodes, %.0f s run\n",
                static_cast<std::size_t>(scene.network().topology().node_count()),
                sim::to_seconds(scene.duration()));
    return 0;
  }
  std::printf("OK: %d components on %zu nodes, %.0f s run\n",
              scene.app().component_count(),
              static_cast<std::size_t>(scene.network().topology().node_count()),
              sim::to_seconds(scene.duration()));
  return 0;
}

// Shared --journal/--metrics/--trace/--prom export tail of run and serve.
int export_observability(scenario::Scenario& scene, const std::string& journal_path,
                         const std::string& metrics_path, const std::string& trace_path,
                         const std::string& prom_path) {
  const obs::Recorder& recorder = scene.recorder();
  if (!journal_path.empty()) {
    if (!recorder.journal().write_jsonl(journal_path)) {
      std::fprintf(stderr, "cannot write '%s'\n", journal_path.c_str());
      return 1;
    }
    std::printf("journal    %zu events -> %s (%lld dropped)\n",
                recorder.journal().size(), journal_path.c_str(),
                static_cast<long long>(recorder.journal().dropped()));
  }
  if (!metrics_path.empty()) {
    if (!recorder.metrics().write_json(metrics_path, scene.now())) {
      std::fprintf(stderr, "cannot write '%s'\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics    %zu instruments -> %s\n",
                recorder.metrics().instrument_count(), metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!recorder.journal().write_trace(trace_path)) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace      %s (open in https://ui.perfetto.dev)\n", trace_path.c_str());
  }
  if (!prom_path.empty()) {
    std::ofstream out(prom_path);
    if (!out || !(out << recorder.metrics().to_prometheus(scene.now()))) {
      std::fprintf(stderr, "cannot write '%s'\n", prom_path.c_str());
      return 1;
    }
    std::printf("prom       %zu instruments -> %s\n",
                recorder.metrics().instrument_count(), prom_path.c_str());
  }
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  std::string path;
  std::string journal_path, metrics_path, trace_path, prom_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--journal" && i + 1 < args.size()) {
      journal_path = args[++i];
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--prom" && i + 1 < args.size()) {
      prom_path = args[++i];
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  auto s = scenario::Scenario::from_file(path);
  if (!s.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", s.error().c_str());
    return 1;
  }
  auto& scene = *s.value();
  const auto report = scene.run();
  if (report.median_bitrate_bps.empty()) {
    std::printf("requests   %lld issued, %lld completed, %lld shed\n",
                static_cast<long long>(report.requests_issued),
                static_cast<long long>(report.requests_completed),
                static_cast<long long>(report.requests_shed));
    std::printf("latency    mean %.1f ms | median %.1f ms | p99 %.1f ms\n",
                report.latency_mean_ms, report.latency_median_ms,
                report.latency_p99_ms);
  } else {
    for (const auto& [node, bps] : report.median_bitrate_bps) {
      std::printf("bitrate    %-12s median %7.0f Kbps per client\n",
                  scene.node_name(node).c_str(), bps / 1e3);
    }
  }
  std::printf("migrations %zu\n", report.migrations);
  std::printf("probes     %.2f MB\n", static_cast<double>(report.probe_bytes) / 1e6);
  if (report.faults_injected > 0 || report.invariant_violations > 0) {
    std::printf("faults     %d injected, %d invariant violations\n",
                report.faults_injected, report.invariant_violations);
  }
  return export_observability(scene, journal_path, metrics_path, trace_path,
                              prom_path);
}

// ---- bassctl serve ----

// Sharded serve: a [zones] section routes the scenario through one solver
// world per zone with border reconciliation between rounds, overlapping
// zone rounds on --jobs workers. Same seed + any --jobs value produce a
// byte-identical --journal.
int serve_sharded(const util::IniFile& ini, std::uint64_t jobs,
                  const std::string& journal_path, const std::string& metrics_path,
                  const std::string& trace_path, const std::string& prom_path) {
  auto built =
      zone::ShardedOrchestrator::from_ini(ini, static_cast<std::size_t>(jobs));
  if (!built.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", built.error().c_str());
    return 1;
  }
  auto orch = built.take();
  const zone::ShardedReport report = orch->run();

  const zone::Partition& part = orch->partition();
  std::printf("zones      %d zones over %zu nodes, %zu border links,"
              " %zu transit streams",
              orch->zones(), part.zone_of.size(), report.border_links,
              report.transit_streams);
  if (report.transit_unroutable > 0) {
    std::printf(" (%zu unroutable)", report.transit_unroutable);
  }
  std::printf("\n");
  std::printf("rounds     %d rounds, %lld reconcile iterations\n", report.rounds,
              static_cast<long long>(report.reconcile_iterations));
  std::printf("gating     %lld zone-rounds full, %lld skipped (tick only);"
              " %lld border rebuilds across %zu components, %lld reconciles"
              " skipped\n",
              static_cast<long long>(report.zone_rounds_full),
              static_cast<long long>(report.zone_rounds_skipped),
              static_cast<long long>(report.border_rebuilds),
              report.border_components,
              static_cast<long long>(report.reconcile_rounds_skipped));
  std::printf("churn      %lld arrivals, %lld departures (%lld cancelled in"
              " queue), %d live at end\n",
              static_cast<long long>(report.serve_arrivals),
              static_cast<long long>(report.serve_departures),
              static_cast<long long>(report.serve_cancelled),
              report.serve_live_at_end);
  std::printf("admission  %lld admitted, %lld rejected, %lld deferred"
              " (peak queue depth %d)\n",
              static_cast<long long>(report.serve_admitted),
              static_cast<long long>(report.serve_rejected),
              static_cast<long long>(report.serve_deferred),
              report.serve_peak_queue_depth);
  std::printf("migrations %zu\n", report.migrations);

  // Pooled SLOs: finish() folded every zone's instruments into the
  // coordinator registry under {zone} labels; merging them back gives the
  // city-wide distribution in the same format the unsharded path prints.
  obs::MetricsRegistry& metrics = orch->recorder().metrics();
  obs::LogHistogram wait, decision;
  metrics.for_each_log_histogram(
      [&](const std::string& name, const obs::Labels&, const obs::LogHistogram& h) {
        if (name == "orchestrator.admission_wait_us") wait.merge(h);
        if (name == "orchestrator.decision_us") decision.merge(h);
      });
  if (wait.count() > 0) {
    std::printf("admission latency: p50 %.1f ms, p99 %.1f ms, max %.1f ms"
                " over %lld decisions\n",
                wait.percentile(0.50) / 1e3, wait.percentile(0.99) / 1e3,
                wait.max() / 1e3, static_cast<long long>(wait.count()));
  }
  if (decision.count() > 0) {
    std::printf("decision latency:  p50 %.1f us, p99 %.1f us, max %.1f us"
                " over %lld rounds\n",
                decision.percentile(0.50), decision.percentile(0.99),
                decision.max(), static_cast<long long>(decision.count()));
  }
  for (int z = 0; z < orch->zones(); ++z) {
    const obs::LogHistogram& wall = metrics.log_timer_us(
        "zone.round_wall_us", {{"zone", std::to_string(z)}});
    std::printf("zone %d     %zu nodes, round wall p50 %.1f ms over %lld rounds\n",
                z, part.members[static_cast<std::size_t>(z)].size(),
                wall.percentile(0.50) / 1e3, static_cast<long long>(wall.count()));
  }

  int rc = 0;
  if (!journal_path.empty()) {
    const std::string merged = orch->merged_journal();
    std::ofstream out(journal_path);
    if (!out || !(out << merged)) {
      std::fprintf(stderr, "cannot write '%s'\n", journal_path.c_str());
      rc = 1;
    } else {
      std::printf("journal    merged %d zones -> %s\n", orch->zones(),
                  journal_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    if (!metrics.write_json(metrics_path, orch->now())) {
      std::fprintf(stderr, "cannot write '%s'\n", metrics_path.c_str());
      rc = 1;
    } else {
      std::printf("metrics    %zu instruments -> %s\n",
                  metrics.instrument_count(), metrics_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    std::printf("trace      not supported with [zones] (per-zone clocks);"
                " use --journal + bassctl events\n");
  }
  if (!prom_path.empty()) {
    std::ofstream out(prom_path);
    if (!out || !(out << metrics.to_prometheus(orch->now()))) {
      std::fprintf(stderr, "cannot write '%s'\n", prom_path.c_str());
      rc = 1;
    } else {
      std::printf("prom       %zu instruments -> %s\n",
                  metrics.instrument_count(), prom_path.c_str());
    }
  }
  if (report.invariant_violations > 0) {
    std::fprintf(stderr, "FAIL: %d invariant violations\n",
                 report.invariant_violations);
    return rc != 0 ? rc : 1;
  }
  return rc;
}

// Long-running control-plane mode: builds the mesh from the scenario, then
// hands the orchestrator to the serving loop (churn arrivals through the
// admission queue, undeploy on departure) instead of a one-shot app.
int cmd_serve(const std::vector<std::string>& args) {
  std::string path;
  std::string journal_path, metrics_path, trace_path, prom_path;
  std::string mode, policy;
  std::uint64_t duration_s = 0, seed = 0, jobs = 1;
  bool has_duration = false, has_seed = false;
  double arrival_per_min = -1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--duration" && i + 1 < args.size()) {
      if (!parse_u64_flag("--duration", args[++i], 1, duration_s)) return 2;
      has_duration = true;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_u64_flag("--jobs", args[++i], 0, jobs)) return 2;
    } else if (args[i] == "--arrival-rate" && i + 1 < args.size()) {
      const std::string& token = args[++i];
      char* end = nullptr;
      arrival_per_min = std::strtod(token.c_str(), &end);
      if (token.empty() || end != token.c_str() + token.size() ||
          !std::isfinite(arrival_per_min) || arrival_per_min <= 0) {
        std::fprintf(stderr, "bassctl: --arrival-rate expects a finite rate/min > 0, got '%s'\n",
                     token.c_str());
        return 2;
      }
    } else if (args[i] == "--mode" && i + 1 < args.size()) {
      mode = args[++i];
      if (auto parsed = scenario::parse_serve_mode(mode); !parsed.ok()) {
        std::fprintf(stderr, "bassctl: %s\n", parsed.error().c_str());
        return 2;
      }
    } else if (args[i] == "--policy" && i + 1 < args.size()) {
      policy = args[++i];
      if (auto parsed = core::parse_admission_policy(policy); !parsed.ok()) {
        std::fprintf(stderr, "bassctl: %s\n", parsed.error().c_str());
        return 2;
      }
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!parse_u64_flag("--seed", args[++i], 0, seed)) return 2;
      has_seed = true;
    } else if (args[i] == "--journal" && i + 1 < args.size()) {
      journal_path = args[++i];
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--prom" && i + 1 < args.size()) {
      prom_path = args[++i];
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  auto ini = util::load_ini(path);
  if (!ini.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", ini.error().c_str());
    return 1;
  }
  // Flags override the ini; a missing [serve] section is created so any
  // mesh-only scenario can serve with defaults.
  std::vector<exec::IniOverride> overrides;
  if (ini.value().first_of_kind("serve") == nullptr) {
    overrides.push_back({"serve", "mode", mode.empty() ? "adaptive" : mode});
  }
  if (has_duration) {
    overrides.push_back({"run", "duration_s", std::to_string(duration_s)});
  }
  if (arrival_per_min > 0) {
    overrides.push_back(
        {"serve", "arrival_per_min", util::str_format("%.6f", arrival_per_min)});
  }
  if (!mode.empty()) overrides.push_back({"serve", "mode", mode});
  if (!policy.empty()) overrides.push_back({"serve", "policy", policy});
  if (has_seed) overrides.push_back({"serve", "seed", std::to_string(seed)});
  exec::apply_overrides(ini.value(), overrides);

  if (ini.value().first_of_kind("zones") != nullptr) {
    return serve_sharded(ini.value(), jobs, journal_path, metrics_path,
                         trace_path, prom_path);
  }

  auto s = scenario::Scenario::from_ini(ini.value());
  if (!s.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", s.error().c_str());
    return 1;
  }
  auto& scene = *s.value();
  const auto report = scene.run();

  std::printf("churn      %lld arrivals, %lld departures (%lld cancelled in"
              " queue), %d live at end\n",
              static_cast<long long>(report.serve_arrivals),
              static_cast<long long>(report.serve_departures),
              static_cast<long long>(report.serve_cancelled),
              report.serve_live_at_end);
  std::printf("admission  %lld admitted, %lld rejected, %lld deferred"
              " (peak queue depth %d)\n",
              static_cast<long long>(report.serve_admitted),
              static_cast<long long>(report.serve_rejected),
              static_cast<long long>(report.serve_deferred),
              report.serve_peak_queue_depth);
  std::printf("migrations %zu (%lld from rebalance)\n", report.migrations,
              static_cast<long long>(report.serve_rebalance_moves));
  // The serving SLO numbers: how long arrivals waited for a yes/no, and how
  // long controller decisions took — both sim-clock, straight off the
  // metrics registry (the same instruments --metrics/--prom export).
  obs::MetricsRegistry& metrics = scene.recorder().metrics();
  const obs::LogHistogram& wait = metrics.log_timer_us("orchestrator.admission_wait_us");
  if (wait.count() > 0) {
    std::printf("admission latency: p50 %.1f ms, p99 %.1f ms, max %.1f ms"
                " over %lld decisions\n",
                wait.percentile(0.50) / 1e3, wait.percentile(0.99) / 1e3,
                wait.max() / 1e3, static_cast<long long>(wait.count()));
  }
  const obs::LogHistogram& decision = metrics.log_timer_us("orchestrator.decision_us");
  if (decision.count() > 0) {
    std::printf("decision latency:  p50 %.1f us, p99 %.1f us, max %.1f us"
                " over %lld rounds\n",
                decision.percentile(0.50), decision.percentile(0.99),
                decision.max(), static_cast<long long>(decision.count()));
  }
  const int rc = export_observability(scene, journal_path, metrics_path,
                                      trace_path, prom_path);
  if (report.invariant_violations > 0) {
    std::fprintf(stderr, "FAIL: %d invariant violations\n",
                 report.invariant_violations);
    return rc != 0 ? rc : 1;
  }
  return rc;
}

// Filters and pretty-prints a journal written by `run --journal`. Times are
// printed in sim seconds; string values lose their JSON quotes.
int cmd_events(const std::vector<std::string>& args) {
  std::string path;
  std::string type_filter;
  double since_s = -1, until_s = -1;
  std::uint64_t last = 0;  // 0 = unlimited
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--type" && i + 1 < args.size()) {
      type_filter = args[++i];
    } else if (args[i] == "--since" && i + 1 < args.size()) {
      since_s = std::atof(args[++i].c_str());
    } else if (args[i] == "--until" && i + 1 < args.size()) {
      until_s = std::atof(args[++i].c_str());
    } else if (args[i] == "--last" && i + 1 < args.size()) {
      if (!parse_u64_flag("--last", args[++i], 1, last)) return 2;
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return 1;
  }
  std::string line;
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t lineno = 0;
  std::vector<std::string> formatted;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!obs::parse_journal_line(line, fields)) {
      std::fprintf(stderr, "%s:%zu: not a journal line\n", path.c_str(), lineno);
      return 1;
    }
    double t_s = 0;
    std::string type;
    std::string rest;
    for (const auto& [key, value] : fields) {
      if (key == "t_us") {
        t_s = std::atof(value.c_str()) / 1e6;
      } else if (key == "type") {
        type = value.size() >= 2 ? value.substr(1, value.size() - 2) : value;
      } else if ((key == "span" || key == "parent") && value == "0") {
        // An unset span id is noise, not information — hide it.
      } else {
        if (!rest.empty()) rest += "  ";
        rest += key + "=";
        // Strip the JSON quotes from string values for readability.
        if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
          rest += value.substr(1, value.size() - 2);
        } else {
          rest += value;
        }
      }
    }
    if (!type_filter.empty() && type != type_filter) continue;
    if (since_s >= 0 && t_s < since_s) continue;
    if (until_s >= 0 && t_s > until_s) continue;
    formatted.push_back(
        util::str_format("%10.3fs  %-22s %s", t_s, type.c_str(), rest.c_str()));
  }
  // --last applies after the other filters: "the last 20 migrations", not
  // "migrations among the last 20 events".
  const std::size_t first =
      last != 0 && formatted.size() > last ? formatted.size() - last : 0;
  for (std::size_t i = first; i < formatted.size(); ++i) {
    std::printf("%s\n", formatted[i].c_str());
  }
  std::fprintf(stderr, "%zu events\n", formatted.size() - first);
  return 0;
}

int cmd_dot(const std::string& path, const std::string& out_path) {
  auto s = scenario::Scenario::from_file(path);
  if (!s.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", s.error().c_str());
    return 1;
  }
  auto& scene = *s.value();
  std::unordered_map<app::ComponentId, net::NodeId> placement;
  for (app::ComponentId c = 0; c < scene.app().component_count(); ++c) {
    placement[c] = scene.orchestrator().node_of(scene.deployment(), c);
  }
  const std::string dot = app::to_dot(scene.app(), &placement);
  if (out_path.empty()) {
    std::fputs(dot.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    out << dot;
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_trace(const std::vector<std::string>& args) {
  std::map<std::string, std::string> opts;
  bool fades = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--fades") {
      fades = true;
    } else if (args[i].rfind("--", 0) == 0 && i + 1 < args.size()) {
      const std::string key = args[i];
      opts[key] = args[++i];
    } else {
      return usage();
    }
  }
  if (!opts.count("--mean-mbps")) return usage();

  trace::GeneratorParams params;
  params.mean_bps = static_cast<net::Bps>(std::atof(opts["--mean-mbps"].c_str()) * 1e6);
  if (opts.count("--stddev-frac")) {
    params.stddev_frac = std::atof(opts["--stddev-frac"].c_str());
  }
  params.duration = sim::seconds_f(
      opts.count("--duration-s") ? std::atof(opts["--duration-s"].c_str()) : 1200);
  if (fades) params.fade_probability = 0.002;
  util::Rng rng(opts.count("--seed")
                    ? static_cast<std::uint64_t>(std::atoll(opts["--seed"].c_str()))
                    : 1);
  const auto generated = trace::generate_trace(params, rng);

  const std::string out = opts.count("--out") ? opts["--out"] : "";
  if (out.empty()) {
    for (const auto& p : generated.points()) {
      std::printf("%.0f,%lld\n", sim::to_seconds(p.at),
                  static_cast<long long>(p.bps));
    }
  } else if (!generated.save_csv(out)) {
    std::fprintf(stderr, "cannot write '%s'\n", out.c_str());
    return 1;
  } else {
    std::printf("wrote %zu points to %s (mean %.2f Mbps, std %.1f%%)\n",
                generated.size(), out.c_str(), generated.mean_bps() / 1e6,
                100.0 * generated.stddev_bps() / generated.mean_bps());
  }
  return 0;
}

// ---- journal analysis (report / journal query) ----

// One parsed journal line. `raw` keeps the original text so queries can
// re-emit valid JSONL.
struct JournalLine {
  std::string raw;
  double t_us = 0;
  std::string type;
  std::uint64_t span = 0, parent = 0;
  std::vector<std::pair<std::string, std::string>> fields;
};

// Field lookup with JSON string quotes stripped; "" when absent.
std::string field_of(const JournalLine& e, const char* key) {
  for (const auto& [k, v] : e.fields) {
    if (k == key) {
      if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
        return v.substr(1, v.size() - 2);
      }
      return v;
    }
  }
  return "";
}

// Loads a journal, tolerating non-event lines (a flight dump's metrics
// trailer nests objects the flat parser rejects) with a warning — the
// analysis commands should work on flight recordings too.
bool load_journal(const std::string& path, std::vector<JournalLine>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t lineno = 0, skipped = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JournalLine e;
    if (!obs::parse_journal_line(line, e.fields)) {
      ++skipped;
      continue;
    }
    e.raw = std::move(line);
    line.clear();
    e.t_us = std::atof(field_of(e, "t_us").c_str());
    e.type = field_of(e, "type");
    e.span = std::strtoull(field_of(e, "span").c_str(), nullptr, 10);
    e.parent = std::strtoull(field_of(e, "parent").c_str(), nullptr, 10);
    out.push_back(std::move(e));
  }
  if (skipped != 0) {
    std::fprintf(stderr, "%s: skipped %zu non-event lines\n", path.c_str(),
                 skipped);
  }
  return true;
}

// Extracts `"key":value` from one line of a metrics snapshot. Not a JSON
// parser: the snapshot is our own single-instrument-per-line format with
// percentiles pre-computed at export time, so a string scan suffices.
bool json_field(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    out = line.substr(i + 1, end - i - 1);
  } else {
    std::size_t end = i;
    while (end < line.size() && line[end] != ',' && line[end] != '}' &&
           line[end] != ']') {
      ++end;
    }
    out = util::trim(line.substr(i, end - i));
  }
  return !out.empty();
}

struct LatencySummary {
  std::string name;
  std::string zone;  // "" unless the instrument carries a {zone} label
  long long count = 0;
  double p50 = 0, p90 = 0, p99 = 0, max = 0;
  // Sparse log2 buckets as exported: [bucket_upper, count] pairs, ascending.
  // Pooling across zones merges these instead of averaging percentiles.
  std::vector<std::pair<std::uint64_t, long long>> buckets;
};

// Lifts every histogram instrument (fixed or log2) out of a metrics
// snapshot written by `bassctl run --metrics` / `chaos --journal-dir`.
std::vector<LatencySummary> load_latency_summaries(const std::string& path) {
  std::vector<LatencySummary> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  while (std::getline(in, line)) {
    std::string name, p50, v;
    if (!json_field(line, "p50", p50) || !json_field(line, "name", name)) {
      continue;
    }
    LatencySummary s;
    s.name = std::move(name);
    s.p50 = std::atof(p50.c_str());
    if (json_field(line, "p90", v)) s.p90 = std::atof(v.c_str());
    if (json_field(line, "p99", v)) s.p99 = std::atof(v.c_str());
    if (json_field(line, "max", v)) s.max = std::atof(v.c_str());
    if (json_field(line, "count", v)) s.count = std::atoll(v.c_str());
    // Sharded serves fold per-zone histograms into the coordinator registry
    // with an appended {zone} label; surface it so the report can group.
    json_field(line, "zone", s.zone);
    std::string kind;
    if (json_field(line, "kind", kind) && kind == "log2") {
      const std::size_t b = line.find("\"buckets\":[");
      if (b != std::string::npos) {
        const char* p = line.c_str() + b + 11;
        while (*p == '[') {
          char* end = nullptr;
          const std::uint64_t upper = std::strtoull(p + 1, &end, 10);
          if (end == nullptr || *end != ',') break;
          const long long n = std::strtoll(end + 1, &end, 10);
          if (end == nullptr || *end != ']') break;
          s.buckets.emplace_back(upper, n);
          p = end + 1;
          if (*p == ',') ++p;
        }
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string prom_safe(const std::string& name) {
  std::string out = "bass_";
  for (char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

// Post-mortem over a journal: event census, latency percentiles from the
// sibling metrics snapshot, the fault timeline, and causal chains stitched
// from span/parent links — which round or fault caused which migration.
int cmd_report(const std::vector<std::string>& args) {
  std::string path, metrics_path, prom_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i] == "--prom" && i + 1 < args.size()) {
      prom_path = args[++i];
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::vector<JournalLine> events;
  if (!load_journal(path, events)) return 1;

  // Auto-discover the sibling snapshot `chaos --journal-dir` writes:
  // seed_7.jsonl -> seed_7.metrics.json.
  if (metrics_path.empty()) {
    std::string candidate = path;
    const std::size_t suffix = candidate.rfind(".jsonl");
    if (suffix != std::string::npos) candidate.resize(suffix);
    candidate += ".metrics.json";
    if (std::ifstream(candidate).good()) metrics_path = candidate;
  }

  // Event census.
  std::map<std::string, std::size_t> counts;
  for (const JournalLine& e : events) ++counts[e.type];
  std::printf("journal    %zu events", events.size());
  if (!events.empty()) {
    std::printf(" over %.3f s", events.back().t_us / 1e6);
  }
  std::printf("\n");
  for (const auto& [type, n] : counts) {
    std::printf("  %-24s %6zu\n", type.c_str(), n);
  }

  // Sharded serves tag every merged-journal event with its source zone
  // (-1 = coordinator); group the census so per-zone skew is visible.
  std::map<long long, std::map<std::string, std::size_t>> zone_census;
  for (const JournalLine& e : events) {
    const std::string z = field_of(e, "zone");
    if (z.empty()) continue;
    ++zone_census[std::atoll(z.c_str())][e.type];
  }
  // Activity gating leaves quiescent zones out of the journal almost
  // entirely; the metrics sidecar's per-zone skip counters let the census
  // tell "quiet because gated" apart from "missing".
  std::map<long long, long long> skipped_by_zone;
  // Routes are built on first use, so the route-state totals (summed over
  // zones) show what the run's placements and flows asked of routing.
  std::map<std::string, double> route_state;
  if (!metrics_path.empty()) {
    std::ifstream min(metrics_path);
    std::string mline;
    while (std::getline(min, mline)) {
      std::string name, zone, value;
      if (!json_field(mline, "name", name) || !json_field(mline, "value", value)) {
        continue;
      }
      if (name.rfind("net.routing.", 0) == 0) {
        route_state[name] += std::atof(value.c_str());
        continue;
      }
      if (name != "zone.skipped_rounds" || !json_field(mline, "zone", zone)) {
        continue;
      }
      skipped_by_zone[std::atoll(zone.c_str())] = std::atoll(value.c_str());
    }
  }
  if (!zone_census.empty() || !skipped_by_zone.empty()) {
    // Every zone the run knew about gets a row: zones absent from the
    // journal (all rounds skipped, no events of their own) print as
    // explicit idle rows instead of silently vanishing from the census.
    long long max_zone = -1;
    if (!zone_census.empty()) max_zone = zone_census.rbegin()->first;
    if (!skipped_by_zone.empty()) {
      max_zone = std::max(max_zone, skipped_by_zone.rbegin()->first);
    }
    for (long long z = 0; z <= max_zone; ++z) zone_census[z];  // gap-fill
    std::printf("\nper-zone census\n");
    for (const auto& [z, types] : zone_census) {
      std::size_t total = 0, own = 0;
      const std::pair<const std::string, std::size_t>* top = nullptr;
      for (const auto& t : types) {
        total += t.second;
        // zone_round summaries are coordinator-emitted on the zone's
        // behalf every round; everything else came out of the zone's own
        // world, so `own == 0` means the zone was quiescent end to end.
        if (t.first != "zone_round") own += t.second;
        if (top == nullptr || t.second > top->second) top = &t;
      }
      const std::string label =
          z < 0 ? std::string("coord") : "zone " + std::to_string(z);
      std::printf("  %-10s %6zu events", label.c_str(), total);
      if (z >= 0 && own == 0) {
        std::printf("  (idle)");
      } else if (top != nullptr) {
        std::printf("  (top: %s %zu)", top->first.c_str(), top->second);
      }
      const auto skipped = skipped_by_zone.find(z);
      if (skipped != skipped_by_zone.end() && skipped->second > 0) {
        std::printf("  %lld rounds skipped", skipped->second);
      }
      std::printf("\n");
    }
  }

  if (!route_state.empty()) {
    std::printf("\nroute state (all worlds)\n");
    for (const auto& [name, value] : route_state) {
      std::printf("  %-28s %14.0f\n", name.c_str(), value);
    }
  }

  // Latency percentiles.
  const std::vector<LatencySummary> latencies =
      metrics_path.empty() ? std::vector<LatencySummary>{}
                           : load_latency_summaries(metrics_path);
  if (!latencies.empty()) {
    std::printf("\nlatency (%s)\n  %-28s %8s %10s %10s %10s %10s\n",
                metrics_path.c_str(), "histogram", "count", "p50", "p90",
                "p99", "max");
    bool decision_printed = false;
    for (const LatencySummary& s : latencies) {
      if (!s.zone.empty()) continue;  // zoned instruments grouped below
      std::printf("  %-28s %8lld %10.1f %10.1f %10.1f %10.1f\n",
                  s.name.c_str(), s.count, s.p50, s.p90, s.p99, s.max);
      if (s.name == "orchestrator.decision_us") {
        std::printf("  decision latency: p50 %.1f us, p99 %.1f us over %lld"
                    " controller rounds\n", s.p50, s.p99, s.count);
        decision_printed = true;
      }
    }
    // Zone-labelled histograms from a sharded serve: per-zone rows, then a
    // pooled row rebuilt by merging each zone's sparse log2 buckets — the
    // only way to pool percentiles correctly (averaging p99s is wrong).
    std::map<std::string, std::vector<const LatencySummary*>> zoned;
    for (const LatencySummary& s : latencies) {
      if (!s.zone.empty()) zoned[s.name].push_back(&s);
    }
    for (auto& [name, rows] : zoned) {
      std::sort(rows.begin(), rows.end(),
                [](const LatencySummary* a, const LatencySummary* b) {
                  return std::atoll(a->zone.c_str()) <
                         std::atoll(b->zone.c_str());
                });
      std::map<std::uint64_t, long long> merged;
      long long total = 0;
      double max = 0;
      for (const LatencySummary* r : rows) {
        const std::string label = name + "{zone=" + r->zone + "}";
        std::printf("  %-28s %8lld %10.1f %10.1f %10.1f %10.1f\n",
                    label.c_str(), r->count, r->p50, r->p90, r->p99, r->max);
        total += r->count;
        if (r->max > max) max = r->max;
        for (const auto& [upper, n] : r->buckets) merged[upper] += n;
      }
      const auto pooled_pct = [&](double q) {
        if (total <= 0 || merged.empty()) return 0.0;
        const double target = q * static_cast<double>(total);
        long long cum = 0;
        for (const auto& [upper, n] : merged) {
          cum += n;
          if (static_cast<double>(cum) >= target) {
            return std::min(static_cast<double>(upper), max);
          }
        }
        return max;
      };
      const double p50 = pooled_pct(0.50), p90 = pooled_pct(0.90),
                   p99 = pooled_pct(0.99);
      const std::string label = name + " (all zones)";
      std::printf("  %-28s %8lld %10.1f %10.1f %10.1f %10.1f\n", label.c_str(),
                  total, p50, p90, p99, max);
      if (name == "orchestrator.decision_us" && !decision_printed) {
        std::printf("  decision latency: p50 %.1f us, p99 %.1f us over %lld"
                    " controller rounds\n", p50, p99, total);
      }
    }
  } else {
    std::printf("\nno metrics snapshot found (pass --metrics, or export one"
                " with `bassctl run --metrics`); skipping latency"
                " percentiles\n");
  }

  // Fault timeline.
  bool any_fault = false;
  for (const JournalLine& e : events) {
    if (e.type != "fault_injected" && e.type != "invariant_violation") continue;
    if (!any_fault) std::printf("\nfault timeline\n");
    any_fault = true;
    if (e.type == "fault_injected") {
      const std::string peer = field_of(e, "peer");
      std::printf("  %9.3fs  %-18s node %s%s%s  (span %llu)\n", e.t_us / 1e6,
                  field_of(e, "kind").c_str(), field_of(e, "node").c_str(),
                  peer == "-1" ? "" : " peer ",
                  peer == "-1" ? "" : peer.c_str(),
                  static_cast<unsigned long long>(e.span));
    } else {
      std::printf("  %9.3fs  INVARIANT %-9s %s\n", e.t_us / 1e6,
                  field_of(e, "name").c_str(), field_of(e, "detail").c_str());
    }
  }

  // Causal chains: every completed migration traced back through its span's
  // parent to the controller round or fault that decided it.
  std::unordered_map<std::uint64_t, const JournalLine*> cause_by_span;
  std::unordered_map<std::uint64_t, const JournalLine*> started_by_span;
  std::unordered_map<std::uint64_t, std::size_t> reallocs_by_parent;
  for (const JournalLine& e : events) {
    if (e.span != 0 &&
        (e.type == "controller_round" || e.type == "fault_injected" ||
         e.type == "probe_completed")) {
      cause_by_span.emplace(e.span, &e);
    }
    if (e.type == "migration_started" && e.span != 0) {
      started_by_span.emplace(e.span, &e);
    }
    if (e.type == "reallocation_solved" && e.parent != 0) {
      ++reallocs_by_parent[e.parent];
    }
  }
  std::size_t chains = 0, migrations = 0;
  std::string chain_text;
  for (const JournalLine& e : events) {
    if (e.type != "migration_completed") continue;
    ++migrations;
    const auto started = started_by_span.find(e.span);
    const std::uint64_t parent =
        started != started_by_span.end() ? started->second->parent : e.parent;
    std::string line = "  ";
    const auto cause = cause_by_span.find(parent);
    if (cause != cause_by_span.end()) {
      const JournalLine& c = *cause->second;
      if (c.type == "controller_round") {
        line += util::str_format("round@%.3fs (span %llu, %s violating)",
                                 c.t_us / 1e6,
                                 static_cast<unsigned long long>(c.span),
                                 field_of(c, "violating").c_str());
      } else {
        line += util::str_format("%s %s@%.3fs (span %llu)", c.type.c_str(),
                                 field_of(c, "kind").c_str(), c.t_us / 1e6,
                                 static_cast<unsigned long long>(c.span));
      }
      ++chains;
    } else if (parent != 0) {
      line += util::str_format("span %llu (cause not in journal)",
                               static_cast<unsigned long long>(parent));
    } else {
      line += "manual/experiment";
    }
    const auto reallocs = reallocs_by_parent.find(parent);
    line += util::str_format(
        " -> decision (%zu reallocs)",
        reallocs != reallocs_by_parent.end() ? reallocs->second
                                             : static_cast<std::size_t>(0));
    line += util::str_format(
        " -> migration c%s n%s->n%s %s (span %llu, downtime %.1fs)",
        field_of(e, "component").c_str(), field_of(e, "from").c_str(),
        field_of(e, "to").c_str(), field_of(e, "reason").c_str(),
        static_cast<unsigned long long>(e.span),
        std::atof(field_of(e, "downtime_us").c_str()) / 1e6);
    chain_text += line + "\n";
  }
  if (migrations != 0) {
    std::printf("\ncausality (%zu/%zu migrations traced to their cause)\n%s",
                chains, migrations, chain_text.c_str());
  }

  // Optional Prometheus re-export of what the report parsed — enough for a
  // scrape job that only has the artifacts, not a live run.
  if (!prom_path.empty()) {
    std::string prom;
    std::map<std::string, bool> typed;  // one TYPE line per metric name
    for (const LatencySummary& s : latencies) {
      const std::string name = prom_safe(s.name);
      if (!typed[name]) {
        typed[name] = true;
        prom += "# TYPE " + name + " summary\n";
      }
      const std::string zl =
          s.zone.empty() ? std::string{} : ",zone=\"" + s.zone + "\"";
      prom += name + "{quantile=\"0.5\"" + zl + "} " +
              util::str_format("%g", s.p50) + "\n";
      prom += name + "{quantile=\"0.9\"" + zl + "} " +
              util::str_format("%g", s.p90) + "\n";
      prom += name + "{quantile=\"0.99\"" + zl + "} " +
              util::str_format("%g", s.p99) + "\n";
      prom += name + "_count" +
              (s.zone.empty() ? std::string{} : "{zone=\"" + s.zone + "\"}") +
              util::str_format(" %lld\n", s.count);
    }
    for (const auto& [type, n] : counts) {
      const std::string name = prom_safe("journal.events_total");
      prom += name + "{type=\"" + type + "\"} " + std::to_string(n) + "\n";
    }
    std::ofstream out(prom_path);
    if (!out || !(out << prom)) {
      std::fprintf(stderr, "cannot write '%s'\n", prom_path.c_str());
      return 1;
    }
    std::printf("\nprom       %s\n", prom_path.c_str());
  }
  return 0;
}

// Raw JSONL queries for scripting: output lines are the original journal
// records, so results pipe straight back into `events`, `report`, or jq.
int cmd_journal(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "query") return usage();
  std::string path, type_filter;
  std::uint64_t span = 0, last = 0, since_us = 0;
  bool have_span = false, have_since = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--type" && i + 1 < args.size()) {
      type_filter = args[++i];
    } else if (args[i] == "--span" && i + 1 < args.size()) {
      if (!parse_u64_flag("--span", args[++i], 1, span)) return 2;
      have_span = true;
    } else if (args[i] == "--since-us" && i + 1 < args.size()) {
      if (!parse_u64_flag("--since-us", args[++i], 0, since_us)) return 2;
      have_since = true;
    } else if (args[i] == "--last" && i + 1 < args.size()) {
      if (!parse_u64_flag("--last", args[++i], 1, last)) return 2;
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  std::vector<JournalLine> events;
  if (!load_journal(path, events)) return 1;

  // --span selects the causal subtree: the span's own events plus everything
  // it transitively caused. Span ids are allocated parent-first, so one
  // forward pass closes the tree; iterate to a fixpoint anyway — journals
  // get truncated and concatenated by hand.
  std::unordered_set<std::uint64_t> in_tree;
  if (have_span) {
    in_tree.insert(span);
    for (bool changed = true; changed;) {
      changed = false;
      for (const JournalLine& e : events) {
        if (e.span != 0 && in_tree.count(e.parent) != 0 &&
            in_tree.insert(e.span).second) {
          changed = true;
        }
      }
    }
  }

  std::vector<const std::string*> matched;
  for (const JournalLine& e : events) {
    if (!type_filter.empty() && e.type != type_filter) continue;
    if (have_since && e.t_us < static_cast<double>(since_us)) continue;
    if (have_span && in_tree.count(e.span) == 0 &&
        in_tree.count(e.parent) == 0) {
      continue;
    }
    matched.push_back(&e.raw);
  }
  const std::size_t first =
      last != 0 && matched.size() > last ? matched.size() - last : 0;
  for (std::size_t i = first; i < matched.size(); ++i) {
    std::printf("%s\n", matched[i]->c_str());
  }
  std::fprintf(stderr, "%zu events\n", matched.size() - first);
  return 0;
}

// ---- bassctl chaos ----

// Per-seed run specs for a chaos soak: only the [chaos] seed differs.
std::vector<exec::RunSpec> chaos_specs(bool has_chaos, std::uint64_t base_seed,
                                       std::uint64_t seeds) {
  std::vector<exec::RunSpec> specs;
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = base_seed + i;
    exec::RunSpec spec;
    spec.label = "seed " + std::to_string(seed);
    if (has_chaos) spec.overrides.push_back({"chaos", "seed", std::to_string(seed)});
    specs.push_back(std::move(spec));
  }
  return specs;
}

int cmd_chaos(const std::vector<std::string>& args) {
  std::string path, journal_dir, flight_dir;
  std::uint64_t seeds = 3, base_seed = 1, jobs = 1;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seeds" && i + 1 < args.size()) {
      if (!parse_u64_flag("--seeds", args[++i], 1, seeds)) return 2;
    } else if (args[i] == "--base-seed" && i + 1 < args.size()) {
      if (!parse_u64_flag("--base-seed", args[++i], 0, base_seed)) return 2;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      // 0 = one worker per hardware thread.
      if (!parse_u64_flag("--jobs", args[++i], 0, jobs)) return 2;
    } else if (args[i] == "--journal-dir" && i + 1 < args.size()) {
      journal_dir = args[++i];
    } else if (args[i] == "--flight-dir" && i + 1 < args.size()) {
      flight_dir = args[++i];
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  auto loaded = util::load_ini(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", loaded.error().c_str());
    return 1;
  }
  const bool has_chaos = loaded.value().first_of_kind("chaos") != nullptr;
  if (!has_chaos && loaded.value().of_kind("fault").empty()) {
    std::fprintf(stderr,
                 "scenario error: '%s' has no [chaos] or [fault ...] sections\n",
                 path.c_str());
    return 1;
  }
  auto artifacts = exec::SweepArtifacts::from_ini(loaded.take());
  if (!artifacts.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", artifacts.error().c_str());
    return 1;
  }
  for (const std::string& dir : {journal_dir, flight_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create '%s': %s\n", dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  // Fan the seeds across workers; outcomes come back indexed by seed order,
  // so everything below prints exactly as the serial soak did.
  std::vector<exec::RunSpec> specs = chaos_specs(has_chaos, base_seed, seeds);
  if (!flight_dir.empty()) {
    // Arm the in-scenario flight recorder: a seed that trips an invariant
    // leaves flight_<seed>.jsonl behind even though its Scenario is torn
    // down inside the sweep (the seed overrides above become the tag).
    for (exec::RunSpec& spec : specs) {
      spec.overrides.push_back({"obs", "flight", "true"});
      spec.overrides.push_back({"obs", "flight_dir", flight_dir});
    }
  }
  const auto outcomes = exec::run_sweep(artifacts.value(), specs, jobs);

  int total_violations = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const exec::RunOutcome& r = outcomes[i];
    const std::uint64_t seed = base_seed + i;
    if (!r.error.empty()) {
      std::fprintf(stderr, "scenario error (seed %llu): %s\n",
                   static_cast<unsigned long long>(seed), r.error.c_str());
      return 1;
    }
    total_violations += r.report.invariant_violations;

    double mean_s = 0, max_s = 0;
    for (double s : r.recovery_s) {
      mean_s += s;
      max_s = std::max(max_s, s);
    }
    if (!r.recovery_s.empty()) mean_s /= static_cast<double>(r.recovery_s.size());
    std::printf(
        "seed %-4llu %3d faults  %d violations  %zu failovers"
        " (recovery mean %.1f s, max %.1f s)  %d components down at end\n",
        static_cast<unsigned long long>(seed), r.report.faults_injected,
        r.report.invariant_violations, r.recovery_s.size(), mean_s, max_s,
        r.components_down);

    if (!journal_dir.empty()) {
      const std::string stem = journal_dir + "/seed_" + std::to_string(seed);
      std::ofstream out(stem + ".jsonl");
      if (!out || !(out << r.journal)) {
        std::fprintf(stderr, "cannot write '%s.jsonl'\n", stem.c_str());
        return 1;
      }
      // Sibling snapshot so `bassctl report <stem>.jsonl` can auto-discover
      // the latency percentiles — wall-clock timings never enter journals.
      std::ofstream metrics(stem + ".metrics.json");
      if (!metrics || !(metrics << r.metrics_json)) {
        std::fprintf(stderr, "cannot write '%s.metrics.json'\n", stem.c_str());
        return 1;
      }
    }
  }

  // Soak-wide decision latency: merge the per-seed log histograms (each seed
  // ran in its own recorder) and report the pooled percentiles.
  obs::LogHistogram decision_us;
  for (const exec::RunOutcome& r : outcomes) {
    for (const auto& [name, h] : r.latency_histograms) {
      if (name == "orchestrator.decision_us") decision_us.merge(h);
    }
  }
  if (decision_us.count() > 0) {
    std::printf("decision latency: p50 %.1f us, p99 %.1f us, max %.1f us"
                " over %lld controller rounds (%llu seeds)\n",
                decision_us.percentile(0.50), decision_us.percentile(0.99),
                decision_us.max(), static_cast<long long>(decision_us.count()),
                static_cast<unsigned long long>(seeds));
  }

  // Determinism: replaying the first seed (serially) must produce a
  // byte-identical fault-event journal regardless of how the parallel soak
  // interleaved (chaos generation + injection are all Rng-driven).
  const auto replay =
      exec::run_sweep(artifacts.value(), chaos_specs(has_chaos, base_seed, 1), 1);
  if (!replay[0].error.empty()) {
    std::fprintf(stderr, "scenario error (replay): %s\n", replay[0].error.c_str());
    return 1;
  }
  const std::string& first_fault_events = outcomes[0].fault_events;
  const bool deterministic = replay[0].fault_events == first_fault_events;
  const std::size_t fault_lines =
      static_cast<std::size_t>(std::count(first_fault_events.begin(),
                                          first_fault_events.end(), '\n'));
  std::printf("determinism: seed %llu replay %s (%zu fault events)\n",
              static_cast<unsigned long long>(base_seed),
              deterministic ? "byte-identical" : "MISMATCH", fault_lines);

  if (total_violations > 0) {
    std::fprintf(stderr, "FAIL: %d invariant violations across %llu seeds\n",
                 total_violations, static_cast<unsigned long long>(seeds));
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: fault journal not reproducible for seed %llu\n",
                 static_cast<unsigned long long>(base_seed));
    return 1;
  }
  std::printf("chaos soak: %llu/%llu seeds clean\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(seeds));
  return 0;
}

// ---- bassctl sweep ----

// Parameter-grid sweep over the migration controller: every (threshold,
// headroom, seed) cell is an independent scenario run, fanned across worker
// threads with deterministic (grid-order) reporting.
int cmd_sweep(const std::vector<std::string>& args) {
  std::string path, out_path;
  std::vector<double> thresholds = {0.25, 0.50, 0.65, 0.75, 0.95};
  std::vector<double> headrooms = {0.10, 0.20, 0.30};
  std::uint64_t seeds = 1, base_seed = 1, jobs = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--thresholds" && i + 1 < args.size()) {
      if (!parse_fraction_list("--thresholds", args[++i], thresholds)) return 2;
    } else if (args[i] == "--headrooms" && i + 1 < args.size()) {
      if (!parse_fraction_list("--headrooms", args[++i], headrooms)) return 2;
    } else if (args[i] == "--seeds" && i + 1 < args.size()) {
      if (!parse_u64_flag("--seeds", args[++i], 1, seeds)) return 2;
    } else if (args[i] == "--base-seed" && i + 1 < args.size()) {
      if (!parse_u64_flag("--base-seed", args[++i], 0, base_seed)) return 2;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!parse_u64_flag("--jobs", args[++i], 0, jobs)) return 2;
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i].rfind("--", 0) != 0 && path.empty()) {
      path = args[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  auto artifacts = exec::SweepArtifacts::load(path);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", artifacts.error().c_str());
    return 1;
  }
  const bool has_chaos = artifacts.value().ini->first_of_kind("chaos") != nullptr;
  const bool has_workload = artifacts.value().ini->first_of_kind("workload") != nullptr;

  std::vector<exec::RunSpec> specs;
  for (const double threshold : thresholds) {
    for (const double headroom : headrooms) {
      for (std::uint64_t i = 0; i < seeds; ++i) {
        const std::uint64_t seed = base_seed + i;
        exec::RunSpec spec;
        spec.label = util::str_format("t=%.2f h=%.2f seed=%llu", threshold,
                                      headroom, static_cast<unsigned long long>(seed));
        spec.overrides.push_back({"migration", "enabled", "true"});
        spec.overrides.push_back({"migration", "threshold", std::to_string(threshold)});
        spec.overrides.push_back({"migration", "headroom", std::to_string(headroom)});
        // Seed whatever stochastic inputs the scenario declares; sections
        // the scenario lacks are left untouched.
        if (has_workload) {
          spec.overrides.push_back({"workload", "seed", std::to_string(seed)});
        }
        if (has_chaos) {
          spec.overrides.push_back({"chaos", "seed", std::to_string(seed)});
        }
        specs.push_back(std::move(spec));
      }
    }
  }

  const auto outcomes = exec::run_sweep(artifacts.value(), specs, jobs);

  obs::MetricsRegistry registry;
  std::printf("%-26s %12s %12s %12s %8s %8s\n", "cell", "median(ms)", "p99(ms)",
              "migrations", "faults", "violations");
  int total_violations = 0;
  struct Cell {
    double threshold = 0, headroom = 0, mean_median = 0, mean_p99 = 0;
  };
  Cell best;
  best.mean_p99 = -1;
  std::size_t run_index = 0;
  for (const double threshold : thresholds) {
    for (const double headroom : headrooms) {
      double sum_median = 0, sum_p99 = 0;
      for (std::uint64_t i = 0; i < seeds; ++i, ++run_index) {
        const exec::RunOutcome& r = outcomes[run_index];
        if (!r.error.empty()) {
          std::fprintf(stderr, "scenario error (%s): %s\n", r.label.c_str(),
                       r.error.c_str());
          return 1;
        }
        total_violations += r.report.invariant_violations;
        sum_median += r.report.latency_median_ms;
        sum_p99 += r.report.latency_p99_ms;
        std::printf("%-26s %12.1f %12.1f %12zu %8d %8d\n", r.label.c_str(),
                    r.report.latency_median_ms, r.report.latency_p99_ms,
                    r.report.migrations, r.report.faults_injected,
                    r.report.invariant_violations);
        const obs::Labels labels = {
            {"threshold", util::str_format("%.2f", threshold)},
            {"headroom", util::str_format("%.2f", headroom)},
            {"seed", std::to_string(base_seed + i)}};
        registry.gauge("sweep.latency_median_ms", labels)
            .set(r.report.latency_median_ms);
        registry.gauge("sweep.latency_p99_ms", labels).set(r.report.latency_p99_ms);
        registry.gauge("sweep.migrations", labels)
            .set(static_cast<double>(r.report.migrations));
      }
      const double n = static_cast<double>(seeds);
      const Cell cell{threshold, headroom, sum_median / n, sum_p99 / n};
      if (best.mean_p99 < 0 || cell.mean_p99 < best.mean_p99) best = cell;
    }
  }
  std::printf("best cell: threshold %.0f%% headroom %.0f%%"
              " (mean median %.1f ms, mean p99 %.1f ms over %llu seed%s)\n",
              best.threshold * 100, best.headroom * 100, best.mean_median,
              best.mean_p99, static_cast<unsigned long long>(seeds),
              seeds == 1 ? "" : "s");

  if (!out_path.empty()) {
    if (!registry.write_json(out_path, 0)) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    std::printf("results    %zu cells x %llu seeds -> %s\n",
                thresholds.size() * headrooms.size(),
                static_cast<unsigned long long>(seeds), out_path.c_str());
  }
  if (total_violations > 0) {
    std::fprintf(stderr, "FAIL: %d invariant violations across the sweep\n",
                 total_violations);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> all(argv + 1, argv + argc);
  // The global --log-level flag may appear anywhere; it wins over BASS_LOG.
  std::vector<std::string> rest;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i] == "--log-level") {
      if (i + 1 >= all.size()) return usage();
      util::LogLevel level;
      if (!util::parse_log_level(all[++i], level)) {
        std::fprintf(stderr, "unknown log level '%s' (debug|info|warn|error|off)\n",
                     all[i].c_str());
        return 2;
      }
      util::set_log_level(level);
    } else {
      rest.push_back(all[i]);
    }
  }
  if (rest.empty()) return usage();
  const std::string cmd = rest[0];
  std::vector<std::string> args(rest.begin() + 1, rest.end());
  if (cmd == "validate" && args.size() == 1) return cmd_validate(args[0]);
  if (cmd == "run") return cmd_run(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "events") return cmd_events(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "journal") return cmd_journal(args);
  if (cmd == "dot" && (args.size() == 1 || args.size() == 2)) {
    return cmd_dot(args[0], args.size() == 2 ? args[1] : "");
  }
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "chaos") return cmd_chaos(args);
  if (cmd == "sweep") return cmd_sweep(args);
  return usage();
}
