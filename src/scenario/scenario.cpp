#include "scenario/scenario.h"

#include <cmath>
#include <functional>

#include "app/catalog.h"
#include "topo/city_grid.h"
#include "trace/generator.h"
#include "util/strings.h"

namespace bass::scenario {

namespace {

util::Error err(const std::string& message) { return util::make_error(message); }

// Generation parameters for a synthetic [trace] section (no file= key).
trace::GeneratorParams parse_trace_gen_params(const util::IniSection& section,
                                              sim::Duration duration) {
  trace::GeneratorParams params;
  params.mean_bps = static_cast<net::Bps>(section.number_or("mean_mbps", 10) * 1e6);
  params.stddev_frac = section.number_or("stddev_frac", 0.1);
  params.duration = duration;
  if (section.flag_or("fades", false)) {
    params.fade_probability = section.number_or("fade_probability", 0.002);
    params.fade_depth_frac = section.number_or("fade_depth", 0.25);
    params.fade_duration = sim::seconds_f(section.number_or("fade_duration_s", 150));
  }
  return params;
}

// Cache key for a generated trace: every input that shapes the points.
std::string trace_cache_key(const util::IniSection& section, sim::Duration duration) {
  std::string key;
  for (const auto& word : section.heading) {
    key += word;
    key += ' ';
  }
  for (const auto& [k, v] : section.entries) {
    key += k;
    key += '=';
    key += v;
    key += ';';
  }
  key += "duration=" + std::to_string(duration);
  return key;
}

// The application graph plus the conference wiring derived from the ini's
// [component]/[edge]/[clients]/[workload] sections. Built once per sweep by
// ScenarioAssets::preload() and copied per run, or built inline by
// from_ini() when no matching assets are supplied.
struct AppBuild {
  app::AppGraph graph{"scenario-app"};
  std::vector<std::pair<net::NodeId, int>> conference_groups;
  bool is_conference = false;
};

util::Expected<AppBuild> build_app(
    const util::IniFile& ini,
    const std::function<net::NodeId(const std::string&)>& node_id) {
  AppBuild out;
  const auto* wl = ini.first_of_kind("workload");
  out.is_conference = wl != nullptr && wl->get_or("type", "requests") == "conference";

  if (out.is_conference) {
    if (!ini.of_kind("component").empty()) {
      return util::make_error(
          "conference scenarios build the SFU app from [clients] "
          "sections; remove [component]/[edge]");
    }
    for (const auto* section : ini.of_kind("clients")) {
      if (section->heading.size() != 2) {
        return util::make_error("[clients] needs a node name");
      }
      const net::NodeId node = node_id(section->heading[1]);
      if (node == net::kInvalidNode) {
        return util::make_error("[clients " + section->heading[1] + "]: unknown node");
      }
      out.conference_groups.emplace_back(
          node, static_cast<int>(section->number_or("count", 1)));
    }
    if (out.conference_groups.empty()) {
      return util::make_error("conference scenario defines no [clients] sections");
    }
    const auto per_stream =
        static_cast<net::Bps>(wl->number_or("per_stream_kbps", 250) * 1e3);
    out.graph = app::video_conference_app(out.conference_groups, per_stream);
  }
  std::map<std::string, app::ComponentId> comps;
  for (const auto* section : ini.of_kind("component")) {
    if (section->heading.size() != 2) {
      return util::make_error("[component] needs exactly one name");
    }
    const std::string& name = section->heading[1];
    if (comps.count(name)) return util::make_error("duplicate component '" + name + "'");
    app::Component c;
    c.name = name;
    c.cpu_milli = static_cast<std::int64_t>(section->number_or("cpu", 100));
    c.memory_mb = static_cast<std::int64_t>(section->number_or("memory_mb", 64));
    c.service_time = sim::seconds_f(section->number_or("service_time_ms", 1) / 1e3);
    c.concurrency = static_cast<int>(section->number_or("concurrency", 4));
    c.state_mb = static_cast<std::int64_t>(section->number_or("state_mb", 0));
    if (const auto pinned = section->get("pinned")) {
      const net::NodeId node = node_id(*pinned);
      if (node == net::kInvalidNode) {
        return util::make_error("component '" + name + "' pinned to unknown node '" +
                                *pinned + "'");
      }
      c.pinned_node = node;
    }
    comps[name] = out.graph.add_component(c);
  }
  if (!out.is_conference && comps.empty()) {
    return util::make_error("scenario defines no [component] sections");
  }

  for (const auto* section : ini.of_kind("edge")) {
    if (section->heading.size() != 3) {
      return util::make_error("[edge] needs two component names");
    }
    const auto from = comps.find(section->heading[1]);
    const auto to = comps.find(section->heading[2]);
    if (from == comps.end() || to == comps.end()) {
      return util::make_error("[edge " + section->heading[1] + " " +
                              section->heading[2] + "]: unknown component");
    }
    app::Edge e;
    e.from = from->second;
    e.to = to->second;
    e.bandwidth = static_cast<net::Bps>(section->number_or("bandwidth_mbps", 1) * 1e6);
    e.request_bytes = static_cast<std::int64_t>(section->number_or("request_bytes", 1024));
    e.response_bytes =
        static_cast<std::int64_t>(section->number_or("response_bytes", 1024));
    e.probability = section->number_or("probability", 1.0);
    e.max_latency = sim::seconds_f(section->number_or("max_latency_ms", 0) / 1e3);
    out.graph.add_dependency(e);
  }
  std::string validation;
  if (!out.graph.validate(&validation)) {
    return util::make_error("invalid application: " + validation);
  }
  return out;
}

}  // namespace

core::SchedulerKind parse_scheduler_kind(const std::string& kind) {
  if (kind == "bfs") return core::SchedulerKind::kBassBfs;
  if (kind == "longest-path") return core::SchedulerKind::kBassLongestPath;
  if (kind == "k3s") return core::SchedulerKind::kK3sDefault;
  return core::SchedulerKind::kBassAuto;
}

util::Expected<sim::Duration> parse_run_duration(const util::IniFile& ini) {
  const auto* run = ini.first_of_kind("run");
  const double seconds = run ? run->number_or("duration_s", 600) : 600;
  if (!std::isfinite(seconds) || seconds <= 0) {
    return err("[run]: duration_s must be a finite number > 0");
  }
  return sim::seconds_f(seconds);
}

// Shared between from_ini's one-shot enable_migration and the serving
// loop's per-admission controller parameters.
controller::MigrationParams parse_migration_params(const util::IniSection& mig) {
  controller::MigrationParams params;
  params.utilization_threshold = mig.number_or("threshold", 0.65);
  params.headroom_frac = mig.number_or("headroom", 0.2);
  params.goodput_floor = mig.number_or("goodput_floor", 0.5);
  params.evaluation_interval = sim::seconds_f(mig.number_or("interval_s", 30));
  params.cooldown = sim::seconds_f(mig.number_or("cooldown_s", 30));
  params.min_migration_gap = sim::seconds_f(mig.number_or("min_gap_s", 90));
  return params;
}

util::Expected<ServeConfig> parse_serve_config(const util::IniFile& ini,
                                               sim::Duration duration) {
  const util::IniSection& serve = *ini.first_of_kind("serve");
  // Every number read here must be finite; the first key that is not is
  // reported (its default stands in until then, so no cast sees a NaN).
  std::string non_finite;
  const auto number = [&serve, &non_finite](const char* key, double fallback) {
    const double value = serve.number_or(key, fallback);
    if (std::isfinite(value)) return value;
    if (non_finite.empty()) non_finite = key;
    return fallback;
  };
  ServeConfig cfg;
  cfg.churn.seed = static_cast<std::uint64_t>(number("seed", 1));
  cfg.churn.arrival_per_min = number("arrival_per_min", 2.0);
  cfg.churn.diurnal_amplitude = number("diurnal_amplitude", 0.0);
  cfg.churn.diurnal_period = sim::seconds_f(number("diurnal_period_s", 1440));
  const double mean_lifetime_s = number("mean_lifetime_s", 300);
  cfg.churn.mean_lifetime = sim::seconds_f(mean_lifetime_s);
  cfg.churn.duration = duration;
  cfg.churn.camera_weight = number("camera_weight", 1.0);
  cfg.churn.conference_weight = number("conference_weight", 1.0);
  cfg.churn.social_weight = number("social_weight", 1.0);
  cfg.churn.resource_scale = number("resource_scale", 0.25);

  auto mode = parse_serve_mode(serve.get_or("mode", "adaptive"));
  if (!mode.ok()) return util::make_error("[serve]: " + mode.error());
  cfg.mode = mode.value();

  auto policy = core::parse_admission_policy(serve.get_or("policy", "fifo"));
  if (!policy.ok()) return util::make_error("[serve]: " + policy.error());
  cfg.admission.policy = policy.value();
  cfg.admission.retry_interval = sim::seconds_f(number("retry_s", 30));
  cfg.admission.max_retries = static_cast<int>(number("max_retries", 5));

  const auto* sched = ini.first_of_kind("scheduler");
  cfg.scheduler = parse_scheduler_kind(sched ? sched->get_or("kind", "auto") : "auto");
  if (const auto* mig = ini.first_of_kind("migration")) {
    cfg.migration = parse_migration_params(*mig);
  }
  cfg.rebalance_interval = sim::seconds_f(number("rebalance_interval_s", 120));
  cfg.rebalance_max_moves = static_cast<int>(number("rebalance_max_moves", 1));
  cfg.rebalance_cpu_threshold = number("rebalance_cpu_threshold", 0.85);

  if (!non_finite.empty()) {
    return err("[serve]: " + non_finite + " must be a finite number");
  }
  if (cfg.churn.arrival_per_min < 0) {
    return err("[serve]: arrival_per_min must be >= 0");
  }
  if (mean_lifetime_s <= 0) return err("[serve]: mean_lifetime_s must be > 0");
  return cfg;
}

util::Expected<TopologySpec> build_topology(const util::IniFile& ini) {
  TopologySpec spec;
  const auto* gen = ini.first_of_kind("topology");
  if (gen != nullptr && !ini.of_kind("node").empty()) {
    return err("scenario defines both [topology] and [node] sections");
  }
  if (gen != nullptr) {
    const std::string kind = gen->get_or("kind", "city_grid");
    if (kind != "city_grid") {
      return err("[topology]: unknown kind '" + kind + "'");
    }
    auto params = topo::parse_city_grid(*gen);
    if (!params.ok()) return err(params.error());
    auto grid = topo::make_city_grid(params.value());
    if (!grid.ok()) return err(grid.error());
    topo::CityGrid city = grid.take();
    spec.topology = std::move(city.topology);
    spec.generated = true;
    cluster::NodeSpec node_spec;
    node_spec.cpu_milli = static_cast<std::int64_t>(gen->number_or("cpu", 4000));
    node_spec.memory_mb =
        static_cast<std::int64_t>(gen->number_or("memory_mb", 4096));
    spec.specs.assign(static_cast<std::size_t>(spec.topology.node_count()),
                      node_spec);
    for (net::NodeId n = 0; n < spec.topology.node_count(); ++n) {
      spec.nodes_by_name[spec.topology.node_name(n)] = n;
    }
    return spec;
  }

  for (const auto* section : ini.of_kind("node")) {
    if (section->heading.size() != 2) return err("[node] needs exactly one name");
    const std::string& name = section->heading[1];
    if (spec.nodes_by_name.count(name)) return err("duplicate node '" + name + "'");
    spec.nodes_by_name[name] = spec.topology.add_node(name);
    cluster::NodeSpec node_spec;
    node_spec.cpu_milli = static_cast<std::int64_t>(section->number_or("cpu", 4000));
    node_spec.memory_mb =
        static_cast<std::int64_t>(section->number_or("memory_mb", 4096));
    node_spec.schedulable = section->flag_or("schedulable", true);
    spec.specs.push_back(node_spec);
  }
  if (spec.nodes_by_name.empty()) return err("scenario defines no [node] sections");

  for (const auto* section : ini.of_kind("link")) {
    if (section->heading.size() != 3) return err("[link] needs two node names");
    const auto a = spec.nodes_by_name.find(section->heading[1]);
    const auto b = spec.nodes_by_name.find(section->heading[2]);
    if (a == spec.nodes_by_name.end() || b == spec.nodes_by_name.end()) {
      return err("[link " + section->heading[1] + " " + section->heading[2] +
                 "]: unknown node");
    }
    const double mbps = section->number_or("capacity_mbps", 10.0);
    spec.topology.add_link(a->second, b->second, static_cast<net::Bps>(mbps * 1e6));
  }
  return spec;
}

std::string app_fingerprint(const util::IniFile& ini) {
  std::string fp;
  for (const auto& section : ini.sections) {
    const std::string& kind = section.kind();
    const bool app_shaping =
        kind == "component" || kind == "edge" || kind == "clients";
    if (kind == "node") {
      // Only names and order matter: they fix the NodeId assignment that
      // pinned= and [clients] resolve against.
      for (const auto& word : section.heading) {
        fp += word;
        fp += ' ';
      }
      fp += '\n';
    } else if (app_shaping) {
      for (const auto& word : section.heading) {
        fp += word;
        fp += ' ';
      }
      fp += '\n';
      for (const auto& [k, v] : section.entries) {
        fp += k;
        fp += '=';
        fp += v;
        fp += '\n';
      }
    } else if (kind == "workload") {
      // Of the workload keys, only these shape the graph itself — seeds and
      // rates deliberately stay out so seed sweeps share the cached app.
      fp += "workload type=" + section.get_or("type", "requests") +
            " per_stream_kbps=" + section.get_or("per_stream_kbps", "250") + '\n';
    }
  }
  return fp;
}

util::Expected<std::shared_ptr<const ScenarioAssets>> ScenarioAssets::preload(
    const util::IniFile& ini) {
  auto assets = std::make_shared<ScenarioAssets>();

  // Mirror from_ini's NodeId assignment: ids follow [node] section order.
  std::map<std::string, net::NodeId> nodes;
  net::NodeId next_id = 0;
  for (const auto* section : ini.of_kind("node")) {
    if (section->heading.size() != 2) return err("[node] needs exactly one name");
    if (!nodes.count(section->heading[1])) nodes[section->heading[1]] = next_id++;
  }
  const auto node_id = [&nodes](const std::string& name) {
    const auto it = nodes.find(name);
    return it == nodes.end() ? net::kInvalidNode : it->second;
  };

  auto run_duration = parse_run_duration(ini);
  if (!run_duration.ok()) return err(run_duration.error());
  const sim::Duration duration = run_duration.value();
  for (const auto* section : ini.of_kind("trace")) {
    if (section->heading.size() != 3) return err("[trace] needs two node names");
    if (const auto file = section->get("file")) {
      if (assets->file_traces.count(*file)) continue;
      auto recorded = trace::BandwidthTrace::load_csv(*file);
      if (!recorded) return err("[trace]: cannot load '" + *file + "'");
      assets->file_traces[*file] =
          std::make_shared<const trace::BandwidthTrace>(std::move(*recorded));
      continue;
    }
    const std::string key = trace_cache_key(*section, duration);
    if (assets->generated_traces.count(key)) continue;
    util::Rng rng(static_cast<std::uint64_t>(section->number_or("seed", 1)));
    assets->generated_traces[key] = std::make_shared<const trace::BandwidthTrace>(
        trace::generate_trace(parse_trace_gen_params(*section, duration), rng));
  }

  // Serving scenarios build their apps per-arrival from the churn schedule;
  // there is no one-shot graph to preload (traces above still cache).
  if (ini.first_of_kind("serve") == nullptr) {
    auto built = build_app(ini, node_id);
    if (!built.ok()) return err(built.error());
    AppBuild build = built.take();
    assets->app = std::make_shared<const app::AppGraph>(std::move(build.graph));
    assets->conference_groups = std::move(build.conference_groups);
    assets->is_conference = build.is_conference;
  }
  assets->fingerprint = app_fingerprint(ini);
  return std::shared_ptr<const ScenarioAssets>(std::move(assets));
}

net::NodeId Scenario::node_id(const std::string& name) const {
  const auto it = nodes_by_name_.find(name);
  return it == nodes_by_name_.end() ? net::kInvalidNode : it->second;
}

std::string Scenario::node_name(net::NodeId id) const {
  for (const auto& [name, node] : nodes_by_name_) {
    if (node == id) return name;
  }
  return "node" + std::to_string(id);
}

util::Expected<std::unique_ptr<Scenario>> Scenario::from_file(const std::string& path) {
  auto ini = util::load_ini(path);
  if (!ini.ok()) return err(ini.error());
  return from_ini(ini.value());
}

util::Expected<std::unique_ptr<Scenario>> Scenario::from_ini(
    const util::IniFile& ini, const ScenarioAssets* assets) {
  auto s = std::unique_ptr<Scenario>(new Scenario());

  // ---- Observability ----
  // Created before any subsystem so construction-time activity (the initial
  // probe round, the deploy decision) lands in the journal too.
  obs::RecorderConfig obs_cfg;
  if (const auto* obs_sec = ini.first_of_kind("obs")) {
    obs_cfg.enabled = obs_sec->flag_or("enabled", true);
    obs_cfg.journal_capacity = static_cast<std::size_t>(
        obs_sec->number_or("journal_capacity", static_cast<double>(obs_cfg.journal_capacity)));
  }
  s->recorder_ = std::make_unique<obs::Recorder>(obs_cfg);

  // ---- Nodes & topology ----
  auto built_topo = build_topology(ini);
  if (!built_topo.ok()) return err(built_topo.error());
  TopologySpec topo_spec = built_topo.take();
  s->nodes_by_name_ = std::move(topo_spec.nodes_by_name);
  s->network_ = std::make_unique<net::Network>(s->sim_, std::move(topo_spec.topology));
  s->network_->set_recorder(s->recorder_.get());

  // Every pair must be reachable — the paper (and BASS) assume no
  // partitions (§3.1). Generated topologies are connected by construction;
  // the all-pairs sweep would be O(n^2) at city scale, so they skip it.
  if (!topo_spec.generated) {
    for (const auto& [na, a] : s->nodes_by_name_) {
      for (const auto& [nb, b] : s->nodes_by_name_) {
        if (!s->network_->routing().reachable(a, b)) {
          return err("mesh is partitioned: '" + na + "' cannot reach '" + nb + "'");
        }
      }
    }
  }

  // ---- Cluster resources ----
  for (net::NodeId id = 0;
       id < static_cast<net::NodeId>(topo_spec.specs.size()); ++id) {
    s->cluster_.add_node(id, topo_spec.specs[static_cast<std::size_t>(id)]);
  }

  // ---- Orchestrator & monitor ----
  core::OrchestratorConfig orch_cfg;
  if (const auto* mig = ini.first_of_kind("migration")) {
    orch_cfg.restart_duration =
        sim::seconds_f(mig->number_or("restart_s", 10.0));
  }
  s->orch_ = std::make_unique<core::Orchestrator>(s->sim_, *s->network_, s->cluster_,
                                                  orch_cfg);
  s->orch_->set_recorder(s->recorder_.get());
  const auto* mon = ini.first_of_kind("monitor");
  if (mon == nullptr || mon->flag_or("enabled", true)) {
    monitor::MonitorConfig mon_cfg;
    if (mon != nullptr) {
      mon_cfg.probe_interval = sim::seconds_f(mon->number_or("probe_interval_s", 30));
      mon_cfg.headroom_frac = mon->number_or("headroom_frac", 0.10);
    }
    s->monitor_ = std::make_unique<monitor::NetMonitor>(*s->network_, mon_cfg);
    s->monitor_->set_recorder(s->recorder_.get());
    s->orch_->attach_monitor(s->monitor_.get());
  }

  // ---- Traces ----
  s->player_ = std::make_unique<trace::TracePlayer>(*s->network_);
  const auto* run = ini.first_of_kind("run");
  auto duration = parse_run_duration(ini);
  if (!duration.ok()) return err(duration.error());
  s->duration_ = duration.value();
  if (run != nullptr) s->dot_path_ = run->get_or("dot", "");
  bool has_traces = false;
  for (const auto* section : ini.of_kind("trace")) {
    if (section->heading.size() != 3) return err("[trace] needs two node names");
    const net::NodeId a = s->node_id(section->heading[1]);
    const net::NodeId b = s->node_id(section->heading[2]);
    if (a == net::kInvalidNode || b == net::kInvalidNode) return err("[trace]: unknown node");
    if (!s->network_->topology().link_between(a, b)) {
      return err("[trace " + section->heading[1] + " " + section->heading[2] +
                 "]: no such link");
    }
    if (const auto file = section->get("file")) {
      // Replay a recorded trace (CSV: t_seconds,bps — bassctl trace emits
      // this format, and real testbed traces can be converted to it).
      // Preloaded assets spare the per-run disk read + parse.
      if (assets != nullptr) {
        const auto it = assets->file_traces.find(*file);
        if (it != assets->file_traces.end()) {
          s->player_->add_bidirectional(a, b, *it->second);
          has_traces = true;
          continue;
        }
      }
      auto recorded = trace::BandwidthTrace::load_csv(*file);
      if (!recorded) return err("[trace]: cannot load '" + *file + "'");
      s->player_->add_bidirectional(a, b, std::move(*recorded));
      has_traces = true;
      continue;
    }
    // Synthetic trace: reuse the pre-generated points when the assets were
    // built with identical parameters (generation is seeded, so the cached
    // copy is exactly what this run would have produced).
    if (assets != nullptr) {
      const auto it =
          assets->generated_traces.find(trace_cache_key(*section, s->duration_));
      if (it != assets->generated_traces.end()) {
        s->player_->add_bidirectional(a, b, *it->second);
        has_traces = true;
        continue;
      }
    }
    util::Rng rng(static_cast<std::uint64_t>(section->number_or("seed", 1)));
    s->player_->add_bidirectional(
        a, b, trace::generate_trace(parse_trace_gen_params(*section, s->duration_), rng));
    has_traces = true;
  }

  // ---- Application ----
  // A [serve] section switches the scenario from "deploy one app, run a
  // workload against it" to the bassd serving loop: apps arrive via the
  // churn schedule and go through admission, so there is nothing to build
  // or deploy up front (and no one-shot profiler/workload).
  const bool serving = ini.first_of_kind("serve") != nullptr;
  const auto* wl = ini.first_of_kind("workload");
  AppBuild app_build;
  bool is_conference = false;
  if (!serving) {
    if (assets != nullptr && assets->app != nullptr &&
        assets->fingerprint == app_fingerprint(ini)) {
      // The cached graph was built from sections identical to ours: take a
      // copy and skip the rebuild + validation.
      app_build.graph = *assets->app;
      app_build.conference_groups = assets->conference_groups;
      app_build.is_conference = assets->is_conference;
    } else {
      auto built = build_app(
          ini, [&s](const std::string& name) { return s->node_id(name); });
      if (!built.ok()) return err(built.error());
      app_build = built.take();
    }
    is_conference = app_build.is_conference;
  }
  const std::vector<std::pair<net::NodeId, int>>& conference_groups =
      app_build.conference_groups;
  app::AppGraph& graph = app_build.graph;

  // ---- Deploy / serving loop ----
  const auto* sched = ini.first_of_kind("scheduler");
  const auto kind = parse_scheduler_kind(sched ? sched->get_or("kind", "auto") : "auto");
  // Probe the links once before placing if a monitor exists, so the
  // scheduler sees measured capacities.
  if (s->monitor_) {
    s->monitor_->start();
    s->sim_.run_until(sim::seconds(2));
  }
  if (has_traces) s->player_->start();
  if (serving) {
    auto serve_cfg = parse_serve_config(ini, s->duration_);
    if (!serve_cfg.ok()) return err(serve_cfg.error());
    s->serving_ = std::make_unique<ServingLoop>(*s->orch_, serve_cfg.take(),
                                                s->monitor_.get());
    s->serving_->set_recorder(s->recorder_.get());
  } else {
    auto deployed = s->orch_->deploy(std::move(graph), kind);
    if (!deployed.ok()) return err("placement failed: " + deployed.error());
    s->deployment_ = deployed.value();

    // ---- Migration & profiler ----
    if (const auto* mig = ini.first_of_kind("migration")) {
      if (mig->flag_or("enabled", true)) {
        s->orch_->enable_migration(s->deployment_, parse_migration_params(*mig));
      }
    }
    if (const auto* prof = ini.first_of_kind("profiler")) {
      if (prof->flag_or("enabled", false)) {
        profiler::ProfilerConfig pcfg;
        pcfg.sample_interval = sim::seconds_f(prof->number_or("sample_interval_s", 10));
        pcfg.safety_factor = prof->number_or("safety_factor", 1.25);
        s->profiler_ = std::make_unique<profiler::OnlineProfiler>(*s->orch_,
                                                                  s->deployment_, pcfg);
        s->profiler_->start();
      }
    }
  }

  // ---- Faults & invariants ----
  // The continuous safety checker is on by default — every scenario run
  // doubles as a robustness test. [invariants] enabled = false opts out.
  const auto* inv = ini.first_of_kind("invariants");
  if (inv == nullptr || inv->flag_or("enabled", true)) {
    s->invariants_ = std::make_unique<fault::Invariants>(
        *s->orch_, s->recorder_.get());
    s->invariants_->attach();
  }

  // ---- Flight recorder ----
  // Off by default (tests and sweeps should not scatter dump files); a
  // chaos harness turns it on with [obs] flight = true and gets a
  // self-contained flight_<tag>.jsonl on the first invariant violation.
  if (const auto* obs_sec = ini.first_of_kind("obs");
      obs_sec != nullptr && obs_sec->flag_or("flight", false)) {
    obs::FlightConfig fc;
    fc.last_events = static_cast<std::size_t>(
        obs_sec->number_or("flight_events", static_cast<double>(fc.last_events)));
    fc.directory = obs_sec->get_or("flight_dir", ".");
    std::string tag = obs_sec->get_or("flight_tag", "");
    if (tag.empty()) {
      // Default tag: the chaos seed, so parallel soak workers' dumps never
      // collide and a dump names the seed that reproduces it.
      const auto* chaos = ini.first_of_kind("chaos");
      tag = chaos != nullptr
                ? util::str_format(
                      "%llu", static_cast<unsigned long long>(
                                  chaos->number_or("seed", 1)))
                : "run";
    }
    fc.tag = std::move(tag);
    s->flight_ = std::make_unique<obs::FlightRecorder>(*s->recorder_, fc);
    if (obs_sec->flag_or("flight_signal", false)) s->flight_->arm_signal_hook();
    if (s->invariants_ != nullptr) {
      s->invariants_->set_violation_hook(
          [flight = s->flight_.get()](const char* name, const std::string&) {
            flight->dump_once(name);
          });
    }
  }
  auto scripted = fault::parse_fault_plan(
      ini, [&s](const std::string& name) { return s->node_id(name); },
      s->network_->topology());
  if (!scripted.ok()) return err(scripted.error());
  fault::FaultPlan plan = scripted.take();
  if (const auto* chaos = ini.first_of_kind("chaos")) {
    const fault::ChaosParams cp = fault::parse_chaos_params(*chaos, s->duration_);
    std::vector<std::pair<net::NodeId, net::NodeId>> links;
    for (const net::Link& link : s->network_->topology().links()) {
      if (link.src < link.dst) links.emplace_back(link.src, link.dst);
    }
    util::Rng chaos_rng(cp.seed);
    plan.merge(fault::generate_chaos_plan(cp, s->cluster_.schedulable_nodes(),
                                          links, chaos_rng));
    plan.sort();
  }
  if (!plan.empty()) {
    s->injector_ = std::make_unique<fault::Injector>(
        *s->orch_, *s->network_, s->monitor_.get(), s->recorder_.get());
    s->injector_->arm(std::move(plan));
  }

  // ---- Workload ----
  if (serving) {
    // The churn schedule IS the workload; [workload] sections are ignored.
  } else if (is_conference) {
    workload::VideoConferenceConfig cfg;
    for (const auto& [node, count] : conference_groups) {
      cfg.groups.push_back({node, count});
    }
    cfg.per_stream = static_cast<net::Bps>(wl->number_or("per_stream_kbps", 250) * 1e3);
    cfg.single_publisher = wl->flag_or("single_publisher", false);
    s->conference_ = std::make_unique<workload::VideoConferenceEngine>(
        *s->orch_, s->deployment_, cfg);
  } else if (wl != nullptr) {
    workload::RequestWorkloadConfig cfg;
    cfg.rps = wl->number_or("rps", 50);
    cfg.arrival = wl->get_or("arrival", "constant") == "exponential"
                      ? workload::RequestWorkloadConfig::Arrival::kExponential
                      : workload::RequestWorkloadConfig::Arrival::kConstant;
    cfg.seed = static_cast<std::uint64_t>(wl->number_or("seed", 1));
    cfg.max_in_flight = static_cast<std::int64_t>(wl->number_or("max_in_flight", 0));
    if (const auto client = wl->get("client")) {
      cfg.client_node = s->node_id(*client);
      if (cfg.client_node == net::kInvalidNode) {
        return err("workload client node '" + *client + "' unknown");
      }
    }
    s->requests_ = std::make_unique<workload::RequestEngine>(*s->orch_, s->deployment_,
                                                             cfg);
  }

  return s;
}

RunReport Scenario::run() {
  RunReport report;
  if (ran_) return report;
  ran_ = true;

  // Duration is measured from run() (construction may have burned a few
  // simulated seconds on the initial probe round).
  const sim::Time t0 = sim_.now();
  if (requests_) requests_->start();
  if (conference_) conference_->start();
  if (serving_) serving_->start();
  sim_.run_until(t0 + duration_);
  if (requests_) requests_->stop();
  if (conference_) conference_->stop();
  if (profiler_) profiler_->stop();
  // Drain in-flight work. The serving loop stays live through the drain so
  // in-flight admissions/migrations resolve before live_at_end is counted.
  sim_.run_until(t0 + duration_ + sim::minutes(2));
  if (serving_) serving_->stop();
  if (monitor_) monitor_->stop();

  if (requests_) {
    report.requests_issued = requests_->issued();
    report.requests_completed = requests_->completed();
    report.requests_shed = requests_->shed();
    report.latency_mean_ms = requests_->latencies().mean_ms();
    report.latency_median_ms = requests_->latencies().median_ms();
    report.latency_p99_ms = requests_->latencies().p99_ms();
  }
  if (conference_) {
    for (const app::Edge& e : orch_->app(deployment_).edges()) {
      const auto node = orch_->app(deployment_).component(e.to).pinned_node;
      if (node) {
        report.median_bitrate_bps[*node] =
            conference_->median_bitrate(*node, sim::seconds(10));
      }
    }
  }
  if (serving_) {
    report.served = true;
    const ServeStats& ss = serving_->stats();
    const core::AdmissionStats& as = serving_->admission_stats();
    report.serve_arrivals = ss.arrivals;
    report.serve_departures = ss.departures;
    report.serve_admitted = as.admitted;
    report.serve_rejected = as.rejected;
    report.serve_deferred = as.deferred;
    report.serve_cancelled = as.cancelled;
    report.serve_peak_queue_depth = as.peak_depth;
    report.serve_live_at_end = ss.live_at_end;
    report.serve_rebalance_moves = ss.rebalance_moves;
  }
  report.migrations = orch_->migration_events().size();
  if (monitor_) report.probe_bytes = monitor_->probe_bytes_sent();
  if (injector_) report.faults_injected = injector_->injected();
  if (invariants_) {
    // One final sweep after the drain, so end-of-run state is covered even
    // when no controller round fired late.
    invariants_->check_now();
    report.invariant_violations = invariants_->violations();
  }
  return report;
}

}  // namespace bass::scenario
