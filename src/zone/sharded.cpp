#include "zone/sharded.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <thread>

#include "util/strings.h"

namespace bass::zone {
namespace {

util::Error err(const std::string& message) { return util::make_error(message); }

// Imposed border rates are integer bps; llround jitter of a single bit per
// second must not count as "the fixpoint moved" or steady state would
// re-settle every round.
constexpr net::Bps kRateEpsBps = 1;

// Distinct per-zone churn seeds derived from the scenario seed: the golden
// ratio stride keeps them far apart for any zone count while staying a pure
// function of (seed, zone) — replays and --jobs variations see identical
// schedules.
std::uint64_t zone_seed(std::uint64_t base, int zone) {
  return base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(zone + 1);
}

}  // namespace

ShardedOrchestrator::~ShardedOrchestrator() = default;

util::Expected<std::unique_ptr<ShardedOrchestrator>> ShardedOrchestrator::create(
    ShardedBuild build, std::size_t jobs) {
  if (build.topology.node_count() == 0) {
    return err("zones: topology has no nodes");
  }
  auto s = std::unique_ptr<ShardedOrchestrator>(new ShardedOrchestrator());
  s->cfg_ = build.zones;
  s->duration_ = build.duration;
  const sim::Duration interval = std::max<sim::Duration>(s->cfg_.round_interval, 1);
  s->cfg_.round_interval = interval;
  s->rounds_total_ = static_cast<int>(
      std::max<sim::Duration>(1, (build.duration + interval - 1) / interval));

  ZonePartitioner partitioner(s->cfg_.count, s->cfg_.method);
  s->partition_ = partitioner.partition(build.topology);

  const std::size_t links = static_cast<std::size_t>(build.topology.link_count());
  s->link_owners_.assign(links, {});
  s->recon_caps_.assign(links, 0.0);
  s->caps_stamp_.assign(links, 0);

  s->cfg_.max_skip = std::max(s->cfg_.max_skip, 1);
  for (int z = 0; z < s->partition_.zones; ++z) {
    s->worlds_.push_back(std::make_unique<World>(build.recorder));
    s->worlds_.back()->zone = z;
    s->build_world(*s->worlds_.back(), build);
  }
  s->setup_transit(build);
  s->build_components();
  s->cache_instruments();
  s->zone_dirty_.assign(s->worlds_.size(), 0);
  s->comp_dirty_.assign(s->components_.size(), 0);
  s->entity_scratch_.reserve(s->transit_.size());
  s->entity_flow_.reserve(s->transit_.size());

  std::size_t workers = jobs;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min<std::size_t>(workers, s->worlds_.size());
  if (workers > 1) s->pool_ = std::make_unique<exec::Pool>(workers);
  return s;
}

util::Expected<std::unique_ptr<ShardedOrchestrator>> ShardedOrchestrator::from_ini(
    const util::IniFile& ini, std::size_t jobs) {
  const auto* zsec = ini.first_of_kind("zones");
  if (zsec == nullptr) return err("scenario has no [zones] section");
  if (ini.first_of_kind("serve") == nullptr) {
    return err("sharded orchestration requires a [serve] section");
  }

  ShardedBuild build;
  auto duration = scenario::parse_run_duration(ini);
  if (!duration.ok()) return err(duration.error());
  build.duration = duration.value();

  auto topo = scenario::build_topology(ini);
  if (!topo.ok()) return err(topo.error());
  scenario::TopologySpec spec = topo.take();
  build.topology = std::move(spec.topology);
  build.specs = std::move(spec.specs);

  auto serve = scenario::parse_serve_config(ini, build.duration);
  if (!serve.ok()) return err(serve.error());
  build.serve = serve.take();

  build.zones.count = static_cast<int>(zsec->number_or("count", 2));
  if (build.zones.count < 1) return err("[zones]: count must be >= 1");
  const std::string method = zsec->get_or("method", "bfs");
  if (method == "chunks") {
    build.zones.method = PartitionMethod::kChunks;
  } else if (method == "bfs") {
    build.zones.method = PartitionMethod::kBfsBalanced;
  } else {
    return err("[zones]: unknown method '" + method + "' (bfs | chunks)");
  }
  build.zones.round_interval =
      sim::seconds_f(zsec->number_or("round_interval_s", 10));
  build.zones.transit_per_border =
      static_cast<int>(zsec->number_or("transit_per_border", 1));
  build.zones.transit_bps =
      static_cast<net::Bps>(zsec->number_or("transit_mbps", 2.0) * 1e6);
  build.zones.transit_local = zsec->flag_or("transit_local", false);
  build.zones.max_reconcile_iterations =
      static_cast<int>(zsec->number_or("max_reconcile_iterations", 4));
  build.zones.gating = zsec->flag_or("gating", true);
  build.zones.max_skip = static_cast<int>(zsec->number_or("max_skip", 8));
  if (build.zones.max_skip < 1) return err("[zones]: max_skip must be >= 1");
  build.zones.active_zones =
      static_cast<int>(zsec->number_or("active_zones", 0));
  if (build.zones.active_zones < 0) {
    return err("[zones]: active_zones must be >= 0");
  }

  const auto* mon = ini.first_of_kind("monitor");
  build.monitor_enabled = mon == nullptr || mon->flag_or("enabled", true);
  if (mon != nullptr) {
    build.monitor.probe_interval =
        sim::seconds_f(mon->number_or("probe_interval_s", 30));
    build.monitor.headroom_frac = mon->number_or("headroom_frac", 0.10);
  }
  const auto* inv = ini.first_of_kind("invariants");
  build.invariants_enabled = inv == nullptr || inv->flag_or("enabled", true);
  if (const auto* mig = ini.first_of_kind("migration")) {
    build.orch.restart_duration = sim::seconds_f(mig->number_or("restart_s", 10.0));
  }
  if (const auto* obs_sec = ini.first_of_kind("obs")) {
    build.recorder.enabled = obs_sec->flag_or("enabled", true);
    build.recorder.journal_capacity = static_cast<std::size_t>(obs_sec->number_or(
        "journal_capacity", static_cast<double>(build.recorder.journal_capacity)));
  }
  return create(std::move(build), jobs);
}

void ShardedOrchestrator::build_world(World& w, const ShardedBuild& build) {
  const net::Topology& topo = build.topology;
  const std::vector<net::NodeId>& members =
      partition_.members[static_cast<std::size_t>(w.zone)];

  // Interior nodes first (ascending global id), then the one-hop halo:
  // remote endpoints of border links touching this zone.
  w.global_to_local.assign(static_cast<std::size_t>(topo.node_count()),
                           net::kInvalidNode);
  w.local_to_global = members;
  w.interior_count = static_cast<int>(members.size());
  std::vector<net::NodeId> halo;
  for (const net::LinkId gl : partition_.border_links) {
    const net::Link& link = topo.link(gl);
    if (partition_.zone_of[static_cast<std::size_t>(link.src)] == w.zone) {
      halo.push_back(link.dst);
    } else if (partition_.zone_of[static_cast<std::size_t>(link.dst)] == w.zone) {
      halo.push_back(link.src);
    }
  }
  std::sort(halo.begin(), halo.end());
  halo.erase(std::unique(halo.begin(), halo.end()), halo.end());
  w.local_to_global.insert(w.local_to_global.end(), halo.begin(), halo.end());
  for (std::size_t i = 0; i < w.local_to_global.size(); ++i) {
    w.global_to_local[static_cast<std::size_t>(w.local_to_global[i])] =
        static_cast<net::NodeId>(i);
  }

  net::Topology local;
  for (const net::NodeId g : w.local_to_global) local.add_node(topo.node_name(g));

  // Local links: every global link with both endpoints present and at least
  // one interior. Halo-halo links stay out — halo nodes exist only to
  // terminate border paths, not to route foreign traffic through the zone.
  // Iterate the src < dst direction of each pair once; the paired reverse
  // link carries the opposite direction's capacity.
  for (net::LinkId gl = 0; gl < topo.link_count(); ++gl) {
    const net::Link& link = topo.link(gl);
    if (link.src >= link.dst) continue;
    const net::NodeId la = w.global_to_local[static_cast<std::size_t>(link.src)];
    const net::NodeId lb = w.global_to_local[static_cast<std::size_t>(link.dst)];
    if (la == net::kInvalidNode || lb == net::kInvalidNode) continue;
    if (la >= w.interior_count && lb >= w.interior_count) continue;
    const auto rev = topo.link_between(link.dst, link.src);
    const net::Bps cap_ba = rev ? topo.link(*rev).capacity : link.capacity;
    const auto [ab, ba] = local.add_link(la, lb, link.capacity, cap_ba);
    w.link_to_global.resize(static_cast<std::size_t>(local.link_count()),
                            net::kInvalidLink);
    w.link_to_global[static_cast<std::size_t>(ab)] = gl;
    if (rev) w.link_to_global[static_cast<std::size_t>(ba)] = *rev;
    auto claim = [&](net::LinkId global, net::LinkId local_id) {
      for (LinkOwner& owner : link_owners_[static_cast<std::size_t>(global)]) {
        if (owner.zone == -1) {
          owner = {w.zone, local_id};
          return;
        }
      }
    };
    claim(gl, ab);
    if (rev) claim(*rev, ba);
  }

  for (std::size_t i = 0; i < w.local_to_global.size(); ++i) {
    cluster::NodeSpec spec;
    if (static_cast<int>(i) < w.interior_count) {
      spec = build.specs[static_cast<std::size_t>(w.local_to_global[i])];
    } else {
      spec.cpu_milli = 0;
      spec.memory_mb = 0;
      spec.schedulable = false;  // halo nodes never host components
    }
    w.cluster.add_node(static_cast<net::NodeId>(i), spec);
  }

  w.network = std::make_unique<net::Network>(w.sim, std::move(local));
  w.network->set_recorder(&w.recorder);
  w.transit_load.assign(static_cast<std::size_t>(topo.link_count()), 0.0);

  w.orch = std::make_unique<core::Orchestrator>(w.sim, *w.network, w.cluster,
                                                build.orch);
  w.orch->set_recorder(&w.recorder);
  if (build.monitor_enabled) {
    w.monitor = std::make_unique<monitor::NetMonitor>(*w.network, build.monitor);
    w.monitor->set_recorder(&w.recorder);
    w.orch->attach_monitor(w.monitor.get());
  }
  if (build.invariants_enabled) {
    w.invariants = std::make_unique<fault::Invariants>(*w.orch, &w.recorder);
    w.invariants->attach();
  }
  if (build.serving) {
    scenario::ServeConfig cfg = build.serve;
    cfg.churn.seed = zone_seed(build.serve.churn.seed, w.zone);
    if (cfg_.active_zones > 0) {
      // Sparse-churn shaping: the whole configured arrival rate lands on
      // the first active_zones zones; the rest serve an empty schedule.
      const int active = std::min(cfg_.active_zones, partition_.zones);
      cfg.churn.arrival_per_min =
          w.zone < active ? build.serve.churn.arrival_per_min / active : 0.0;
    } else {
      cfg.churn.arrival_per_min =
          build.serve.churn.arrival_per_min / partition_.zones;
    }
    cfg.churn.duration = build.duration;
    w.serving = std::make_unique<scenario::ServingLoop>(*w.orch, cfg,
                                                        w.monitor.get());
    w.serving->set_recorder(&w.recorder);
  }
}

void ShardedOrchestrator::setup_transit(const ShardedBuild& build) {
  if (cfg_.transit_per_border <= 0 || partition_.zones < 2) return;
  const net::Topology& topo = build.topology;
  int seq = 0;
  for (const net::LinkId gl : partition_.border_links) {
    const net::Link& link = topo.link(gl);
    const int za = partition_.zone_of[static_cast<std::size_t>(link.src)];
    const int zb = partition_.zone_of[static_cast<std::size_t>(link.dst)];
    World& a = *worlds_[static_cast<std::size_t>(za)];
    World& b = *worlds_[static_cast<std::size_t>(zb)];
    for (int k = 0; k < cfg_.transit_per_border; ++k, ++seq) {
      TransitFlow f;
      f.zone_a = za;
      f.zone_b = zb;
      f.demand = cfg_.transit_bps;
      if (cfg_.transit_local) {
        // Border-router endpoints: both halves collapse onto the border
        // link itself, so each border's flows contend only with each other.
        f.a_src = a.global_to_local[static_cast<std::size_t>(link.src)];
        f.b_dst = b.global_to_local[static_cast<std::size_t>(link.dst)];
      } else {
        // Rotate the intra-zone endpoints across members so transit couples
        // to different parts of each zone, not always the border router.
        f.a_src = static_cast<net::NodeId>((seq * 7) % a.interior_count);
        f.b_dst = static_cast<net::NodeId>((seq * 7 + 3) % b.interior_count);
      }
      f.a_dst = a.global_to_local[static_cast<std::size_t>(link.dst)];
      f.b_src = b.global_to_local[static_cast<std::size_t>(link.src)];

      const auto map_path = [this](World& w, net::NodeId src, net::NodeId dst,
                                   std::vector<net::LinkId>& out) {
        out.clear();
        if (src == dst) return true;
        const std::span<const net::LinkId> path = w.network->routing().path(src, dst);
        if (path.empty()) return false;
        for (const net::LinkId ll : path) {
          const net::LinkId g = w.link_to_global[static_cast<std::size_t>(ll)];
          if (g == net::kInvalidLink) return false;
          out.push_back(g);
        }
        return true;
      };
      if (!map_path(a, f.a_src, f.a_dst, f.a_path) ||
          !map_path(b, f.b_src, f.b_dst, f.b_path)) {
        ++skipped_transit_;
        continue;
      }
      f.union_links = f.a_path;
      f.union_links.insert(f.union_links.end(), f.b_path.begin(), f.b_path.end());
      std::sort(f.union_links.begin(), f.union_links.end());
      f.union_links.erase(
          std::unique(f.union_links.begin(), f.union_links.end()),
          f.union_links.end());
      ++a.border_halves;
      ++b.border_halves;
      transit_.push_back(std::move(f));
    }
  }
}

void ShardedOrchestrator::build_components() {
  // Union-find over transit flows: flows sharing any global link coalesce.
  // The grouping is a pure function of the (deterministic) transit layout,
  // so component ids and orders are identical across runs and --jobs.
  const std::size_t n = transit_.size();
  flow_component_.assign(n, -1);
  if (n == 0) return;
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> link_flow(link_owners_.size(), kNone);
  for (std::size_t i = 0; i < n; ++i) {
    for (const net::LinkId gl : transit_[i].union_links) {
      std::size_t& seen = link_flow[static_cast<std::size_t>(gl)];
      if (seen == kNone) {
        seen = i;
      } else {
        parent[find(i)] = find(seen);
      }
    }
  }

  // Components numbered by their lowest flow index; flows listed ascending.
  std::vector<int> comp_of_root(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (comp_of_root[root] == -1) {
      comp_of_root[root] = static_cast<int>(components_.size());
      components_.emplace_back();
    }
    const int c = comp_of_root[root];
    flow_component_[i] = c;
    components_[static_cast<std::size_t>(c)].flows.push_back(i);
  }
  const auto sort_dedup = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (BorderComponent& comp : components_) {
    for (const std::size_t fi : comp.flows) {
      const TransitFlow& f = transit_[fi];
      comp.links.insert(comp.links.end(), f.union_links.begin(),
                        f.union_links.end());
      comp.load_zones.push_back(f.zone_a);
      comp.load_zones.push_back(f.zone_b);
    }
    sort_dedup(comp.links);
    sort_dedup(comp.load_zones);
    for (const net::LinkId gl : comp.links) {
      for (const LinkOwner& owner : link_owners_[static_cast<std::size_t>(gl)]) {
        if (owner.zone != -1) comp.owner_zones.push_back(owner.zone);
      }
    }
    sort_dedup(comp.owner_zones);
  }
}

void ShardedOrchestrator::cache_instruments() {
  obs::MetricsRegistry& metrics = coordinator_.metrics();
  m_rounds_ = &metrics.counter("zone.rounds");
  m_recon_iterations_ = &metrics.counter("zone.reconcile_iterations");
  m_dirty_borders_ = &metrics.counter("zone.dirty_borders");
  for (auto& w : worlds_) {
    const obs::Labels labels{{"zone", std::to_string(w->zone)}};
    w->m_round_wall = &metrics.log_timer_us("zone.round_wall_us", labels);
    w->m_border_streams = &metrics.gauge("zone.border_streams", labels);
    w->m_flows = &metrics.gauge("zone.flows", labels);
    w->m_skipped_rounds = &metrics.counter("zone.skipped_rounds", labels);
  }
}

void ShardedOrchestrator::advance_all(sim::Time deadline, bool timed) {
  const auto task = [deadline, timed](World& w) {
    obs::ScopedGlobalRecorder guard(&w.recorder);
    const auto t0 = std::chrono::steady_clock::now();
    w.sim.run_until(deadline);
    if (timed) {
      w.round_wall_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
  };
  if (pool_) {
    for (auto& w : worlds_) {
      World* wp = w.get();
      pool_->submit([task, wp] { task(*wp); });
    }
    pool_->wait();
  } else {
    for (auto& w : worlds_) task(*w);
  }
}

void ShardedOrchestrator::advance_due(sim::Time deadline) {
  const auto task = [deadline](World& w) {
    obs::ScopedGlobalRecorder guard(&w.recorder);
    const auto t0 = std::chrono::steady_clock::now();
    w.sim.run_until(deadline);
    w.round_wall_us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  };
  if (pool_) {
    for (auto& w : worlds_) {
      if (!w->due) continue;
      World* wp = w.get();
      pool_->submit([task, wp] { task(*wp); });
    }
    pool_->wait();
  } else {
    for (auto& w : worlds_) {
      if (w->due) task(*w);
    }
  }
}

bool ShardedOrchestrator::zone_due(World& w, sim::Time deadline) {
  // The activity summary. Every class but the heartbeat is also visible as
  // a scheduled event, so the kActTimer probe alone decides correctness;
  // the named classes exist for the census and cost nothing measurable.
  bool due = false;
  if (w.serving != nullptr && w.serving->churn_due(deadline)) {
    ++w.activity[kActChurn];
    due = true;
  }
  if (w.serving != nullptr && w.serving->queue_depth() > 0) {
    ++w.activity[kActQueue];
    due = true;
  }
  if (w.orch->live_deployment_count() > 0) {
    ++w.activity[kActLive];
    due = true;
  }
  if (!w.orch->failed_nodes().empty()) {
    ++w.activity[kActFault];
    due = true;
  }
  if (w.monitor != nullptr) {
    const int violations = w.monitor->violation_count();
    if (violations != w.probe_violations_seen) {
      w.probe_violations_seen = violations;
      ++w.activity[kActProbe];
      due = true;
    }
  }
  if (w.sim.has_event_before(deadline)) {
    ++w.activity[kActTimer];
    due = true;
  }
  if (!due && w.consecutive_skips >= cfg_.max_skip) {
    ++w.activity[kActHeartbeat];
    due = true;
  }
  return due;
}

void ShardedOrchestrator::start() {
  if (started_) return;
  started_ = true;

  // Warmup mirrors Scenario::from_ini: monitors pre-probe for two sim
  // seconds so schedulers see measured capacities before the first round.
  for (auto& w : worlds_) {
    if (w->monitor) {
      obs::ScopedGlobalRecorder guard(&w->recorder);
      w->monitor->start();
    }
  }
  advance_all(sim::seconds(2), false);
  base_ = sim::seconds(2);

  // Border transit comes up at the end of warmup, serially in border-link
  // order — every run (any --jobs) opens the same streams in the same
  // order. One batch per zone: opening T streams individually re-settles
  // the shared contention component each time (O(T^2) flow touches);
  // batched, each zone settles once.
  {
    std::vector<std::unique_ptr<net::Network::BatchUpdate>> batches(
        worlds_.size());
    for (TransitFlow& f : transit_) {
      World& a = *worlds_[static_cast<std::size_t>(f.zone_a)];
      World& b = *worlds_[static_cast<std::size_t>(f.zone_b)];
      if (!batches[static_cast<std::size_t>(f.zone_a)]) {
        batches[static_cast<std::size_t>(f.zone_a)] =
            std::make_unique<net::Network::BatchUpdate>(*a.network);
      }
      if (!batches[static_cast<std::size_t>(f.zone_b)]) {
        batches[static_cast<std::size_t>(f.zone_b)] =
            std::make_unique<net::Network::BatchUpdate>(*b.network);
      }
      {
        obs::ScopedGlobalRecorder guard(&a.recorder);
        f.a_stream = a.network->open_stream(f.a_src, f.a_dst, f.demand);
      }
      {
        obs::ScopedGlobalRecorder guard(&b.recorder);
        f.b_stream = b.network->open_stream(f.b_src, f.b_dst, f.demand);
      }
      f.imposed_a = f.demand;
      f.imposed_b = f.demand;
    }
    for (std::size_t z = 0; z < worlds_.size(); ++z) {
      if (!batches[z]) continue;
      obs::ScopedGlobalRecorder guard(&worlds_[z]->recorder);
      batches[z].reset();  // settle this zone once
    }
  }

  for (auto& w : worlds_) {
    if (w->serving) {
      obs::ScopedGlobalRecorder guard(&w->recorder);
      w->serving->start();
    }
  }
}

int ShardedOrchestrator::reconcile() {
  if (transit_.empty()) return 0;
  int changed_iterations = 0;
  bool rebuilt_any = false;
  const bool gate = cfg_.gating;

  for (int pass = 0; pass < cfg_.max_reconcile_iterations; ++pass) {
    // Which zones reallocated since we last looked. Every allocation-moving
    // path — stream open/close, demand change, capacity shift — runs
    // through Network::reallocate(), which bumps the counter; transit
    // rates and link_allocated can only move with it. Ungated mode treats
    // everything as dirty, reproducing the pre-gating pass exactly.
    bool any_zone_dirty = false;
    for (auto& w : worlds_) {
      const std::int64_t marker = w->network->alloc_stats().reallocations;
      const bool dirty = !gate || marker != w->recon_marker;
      w->recon_marker = marker;
      zone_dirty_[static_cast<std::size_t>(w->zone)] =
          static_cast<std::uint8_t>(dirty);
      any_zone_dirty |= dirty;
    }
    if (!any_zone_dirty) break;

    // A component is dirty when any owner zone of any of its links
    // reallocated. Clean components are bitwise fixpoints: their links'
    // residuals and their flows' rates are untouched since the solve that
    // imposed them, and the max-min fill is component-local — re-solving
    // would reproduce the imposed rates to the bit.
    int dirty_comps = 0;
    std::size_t dirty_links = 0;
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      const BorderComponent& comp = components_[ci];
      bool dirty = false;
      for (const int z : comp.owner_zones) {
        if (zone_dirty_[static_cast<std::size_t>(z)] != 0) {
          dirty = true;
          break;
        }
      }
      comp_dirty_[ci] = static_cast<std::uint8_t>(dirty);
      if (dirty) {
        ++dirty_comps;
        dirty_links += comp.links.size();
      }
    }
    if (dirty_comps == 0) break;
    border_rebuilds_ += dirty_comps;
    if (m_dirty_borders_ != nullptr) m_dirty_borders_->add(dirty_comps);
    rebuilt_any = true;

    // Transit load per world per global link, rebuilt for dirty components
    // only. Components are link-disjoint, so the stale entries left behind
    // for clean components are never read below.
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      if (comp_dirty_[ci] == 0) continue;
      const BorderComponent& comp = components_[ci];
      for (const int z : comp.load_zones) {
        World& w = *worlds_[static_cast<std::size_t>(z)];
        for (const net::LinkId gl : comp.links) {
          w.transit_load[static_cast<std::size_t>(gl)] = 0.0;
        }
      }
      for (const std::size_t fi : comp.flows) {
        const TransitFlow& f = transit_[fi];
        World& a = *worlds_[static_cast<std::size_t>(f.zone_a)];
        World& b = *worlds_[static_cast<std::size_t>(f.zone_b)];
        const auto add_load = [](World& w, const std::vector<net::LinkId>& path,
                                 double rate) {
          for (const net::LinkId gl : path) {
            w.transit_load[static_cast<std::size_t>(gl)] += rate;
          }
        };
        add_load(a, f.a_path,
                 static_cast<double>(a.network->stream_rate(f.a_stream)));
        add_load(b, f.b_path,
                 static_cast<double>(b.network->stream_rate(f.b_stream)));
      }
    }

    // Residual capacity for border traffic on every dirty-component link:
    // what the owning worlds' non-transit allocations leave over, min
    // across owners (border links are owned by both touching zones).
    ++stamp_;
    for (std::size_t ci = 0; ci < components_.size(); ++ci) {
      if (comp_dirty_[ci] == 0) continue;
      for (const net::LinkId gl : components_[ci].links) {
        if (caps_stamp_[static_cast<std::size_t>(gl)] == stamp_) continue;
        caps_stamp_[static_cast<std::size_t>(gl)] = stamp_;
        double residual = std::numeric_limits<double>::max();
        for (const LinkOwner& owner : link_owners_[static_cast<std::size_t>(gl)]) {
          if (owner.zone == -1) continue;
          World& w = *worlds_[static_cast<std::size_t>(owner.zone)];
          const double non_transit =
              static_cast<double>(w.network->link_allocated(owner.local)) -
              w.transit_load[static_cast<std::size_t>(gl)];
          const double avail =
              static_cast<double>(w.network->link_capacity(owner.local)) -
              non_transit;
          residual = std::min(residual, avail);
        }
        recon_caps_[static_cast<std::size_t>(gl)] = std::max(residual, 0.0);
      }
    }

    // One solve over the dirty components' flows, in transit order — the
    // solver is component-local, so the subset solve matches the full
    // solve bitwise for every included flow.
    entity_scratch_.clear();
    entity_flow_.clear();
    for (std::size_t i = 0; i < transit_.size(); ++i) {
      if (comp_dirty_[static_cast<std::size_t>(flow_component_[i])] == 0) {
        continue;
      }
      entity_scratch_.push_back(
          {static_cast<double>(transit_[i].demand), transit_[i].union_links});
      entity_flow_.push_back(i);
    }
    const std::vector<double>& rates =
        border_solver_.solve(recon_caps_, entity_scratch_);

    // Impose the solve as demand caps on both halves; each zone settles
    // once per pass via a batch update. Impositions bump the target zones'
    // reallocation markers, so the next pass picks them up as dirty — the
    // fixpoint loop needs no extra bookkeeping.
    batch_scratch_.clear();
    batch_scratch_.resize(worlds_.size());
    const auto batch_for = [this](int zone) -> void {
      if (!batch_scratch_[static_cast<std::size_t>(zone)]) {
        batch_scratch_[static_cast<std::size_t>(zone)] =
            std::make_unique<net::Network::BatchUpdate>(
                *worlds_[static_cast<std::size_t>(zone)]->network);
      }
    };
    bool changed = false;
    for (std::size_t e = 0; e < entity_flow_.size(); ++e) {
      TransitFlow& f = transit_[entity_flow_[e]];
      const net::Bps target = std::clamp<net::Bps>(
          static_cast<net::Bps>(std::llround(rates[e])), 0, f.demand);
      if (std::llabs(target - f.imposed_a) > kRateEpsBps) {
        batch_for(f.zone_a);
        obs::ScopedGlobalRecorder guard(
            &worlds_[static_cast<std::size_t>(f.zone_a)]->recorder);
        worlds_[static_cast<std::size_t>(f.zone_a)]->network->set_stream_demand(
            f.a_stream, target);
        f.imposed_a = target;
        changed = true;
      }
      if (std::llabs(target - f.imposed_b) > kRateEpsBps) {
        batch_for(f.zone_b);
        obs::ScopedGlobalRecorder guard(
            &worlds_[static_cast<std::size_t>(f.zone_b)]->recorder);
        worlds_[static_cast<std::size_t>(f.zone_b)]->network->set_stream_demand(
            f.b_stream, target);
        f.imposed_b = target;
        changed = true;
      }
    }
    batch_scratch_.clear();  // settle all touched zones
    if (!changed) break;
    ++changed_iterations;
  }
  if (!rebuilt_any) ++reconcile_skipped_;
  return changed_iterations;
}

void ShardedOrchestrator::run_round() {
  if (!started_) start();
  const int r = round_;
  const sim::Time deadline =
      base_ + static_cast<sim::Time>(r + 1) * cfg_.round_interval;

  // Serial activity scan — a pure function of zone state, so the due set
  // is identical at any --jobs value.
  const bool gate = cfg_.gating;
  for (auto& w : worlds_) {
    w->due = !gate || zone_due(*w, deadline);
  }

  const auto now_wall = [] { return std::chrono::steady_clock::now(); };
  const auto us_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Quiescent zones: nothing is scheduled in their window, so run_until
  // only moves the clock — the exact instructions the full pass would
  // execute, minus the pool round-trip. Journals stay byte-identical.
  auto t0 = now_wall();
  int due_count = 0;
  for (auto& w : worlds_) {
    if (w->due) {
      ++due_count;
      continue;
    }
    w->sim.run_until(deadline);
    ++w->rounds_skipped;
    ++w->consecutive_skips;
    w->max_skip_streak = std::max(w->max_skip_streak, w->consecutive_skips);
    w->m_skipped_rounds->inc();
  }
  tick_wall_us_ += us_since(t0);

  t0 = now_wall();
  if (due_count > 0) {
    advance_due(deadline);
    for (auto& w : worlds_) {
      if (!w->due) continue;
      ++w->rounds_full;
      w->consecutive_skips = 0;
    }
  }
  advance_wall_us_ += us_since(t0);

  t0 = now_wall();
  const int iterations = reconcile();
  reconcile_wall_us_ += us_since(t0);
  reconcile_total_ += iterations;
  ++round_;

  // Coordinator journal + metrics, serially — deterministic regardless of
  // worker count. The summary span parents the per-zone records. These
  // events are identical gated and ungated (the journal byte-identity
  // contract); gating surfaces only through metrics and the report.
  int total_flows = 0;
  int total_halves = 0;
  for (const auto& w : worlds_) {
    total_flows += static_cast<int>(w->network->stream_count());
    total_halves += w->border_halves;
  }
  obs::ZoneRound summary;
  summary.at = deadline;
  summary.zone = -1;
  summary.round = r;
  summary.flows = total_flows;
  summary.border_streams = total_halves;
  summary.recon_iterations = iterations;
  summary.span = coordinator_.new_span();
  coordinator_.record(obs::Event{summary});

  m_rounds_->inc();
  m_recon_iterations_->add(iterations);
  for (const auto& w : worlds_) {
    obs::ZoneRound zr;
    zr.at = deadline;
    zr.zone = w->zone;
    zr.round = r;
    zr.flows = static_cast<int>(w->network->stream_count());
    zr.border_streams = w->border_halves;
    zr.recon_iterations = iterations;
    zr.span = coordinator_.new_span();
    zr.parent = summary.span;
    coordinator_.record(obs::Event{zr});
    if (w->due) w->m_round_wall->observe(w->round_wall_us);
    w->m_border_streams->set(static_cast<double>(w->border_halves));
    w->m_flows->set(static_cast<double>(zr.flows));
  }
}

void ShardedOrchestrator::finish() {
  if (finished_) return;
  if (!started_) start();
  finished_ = true;

  // Drain mirrors Scenario::run(): two extra sim-minutes with the serving
  // loops live so in-flight admissions and migrations resolve.
  const sim::Time end =
      base_ + static_cast<sim::Time>(round_) * cfg_.round_interval;
  advance_all(end + sim::minutes(2), false);

  report_ = ShardedReport{};
  for (auto& w : worlds_) {
    obs::ScopedGlobalRecorder guard(&w->recorder);
    if (w->serving) w->serving->stop();
    if (w->monitor) w->monitor->stop();
    if (w->invariants) w->invariants->check_now();
  }

  // Fold every zone's instruments into the coordinator registry under an
  // added {zone} label, so one metrics snapshot covers the whole city.
  obs::MetricsRegistry& dst = coordinator_.metrics();
  for (auto& w : worlds_) {
    const std::string zone_label = std::to_string(w->zone);
    const auto relabel = [&zone_label](const obs::Labels& labels) {
      obs::Labels out = labels;
      out.emplace_back("zone", zone_label);
      return out;
    };
    const obs::MetricsRegistry& src = w->recorder.metrics();
    src.for_each_counter([&](const std::string& name, const obs::Labels& labels,
                             const obs::Counter& c) {
      dst.counter(name, relabel(labels)).add(c.value());
    });
    src.for_each_gauge([&](const std::string& name, const obs::Labels& labels,
                           const obs::Gauge& g) {
      dst.gauge(name, relabel(labels)).set(g.value());
    });
    src.for_each_log_histogram([&](const std::string& name,
                                   const obs::Labels& labels,
                                   const obs::LogHistogram& h) {
      dst.log_histogram(name, relabel(labels)).merge(h);
    });
  }

  for (auto& w : worlds_) {
    if (w->serving) {
      const scenario::ServeStats& ss = w->serving->stats();
      const core::AdmissionStats& as = w->serving->admission_stats();
      report_.serve_arrivals += ss.arrivals;
      report_.serve_departures += ss.departures;
      report_.serve_admitted += as.admitted;
      report_.serve_rejected += as.rejected;
      report_.serve_deferred += as.deferred;
      report_.serve_cancelled += as.cancelled;
      report_.serve_peak_queue_depth =
          std::max(report_.serve_peak_queue_depth, as.peak_depth);
      report_.serve_live_at_end += ss.live_at_end;
    }
    report_.migrations += w->orch->migration_events().size();
    if (w->invariants) report_.invariant_violations += w->invariants->violations();
  }
  report_.rounds = round_;
  report_.reconcile_iterations = reconcile_total_;
  report_.border_links = partition_.border_links.size();
  report_.transit_streams = transit_.size();
  report_.transit_unroutable = skipped_transit_;
  report_.border_components = components_.size();
  report_.border_rebuilds = border_rebuilds_;
  report_.reconcile_rounds_skipped = reconcile_skipped_;
  report_.tick_wall_us = tick_wall_us_;
  report_.advance_wall_us = advance_wall_us_;
  report_.reconcile_wall_us = reconcile_wall_us_;

  // Activity census: why each zone's rounds could not be skipped.
  static constexpr const char* kActivityNames[kActivityKinds] = {
      "churn", "queue", "live", "fault", "probe", "timer", "heartbeat"};
  for (auto& w : worlds_) {
    report_.zone_rounds_full += w->rounds_full;
    report_.zone_rounds_skipped += w->rounds_skipped;
    const std::string zone_label = std::to_string(w->zone);
    for (int k = 0; k < kActivityKinds; ++k) {
      if (w->activity[static_cast<std::size_t>(k)] == 0) continue;
      dst.counter("zone.activity",
                  {{"kind", kActivityNames[k]}, {"zone", zone_label}})
          .add(w->activity[static_cast<std::size_t>(k)]);
    }
  }
}

int ShardedOrchestrator::max_consecutive_skips() const {
  int streak = 0;
  for (const auto& w : worlds_) streak = std::max(streak, w->max_skip_streak);
  return streak;
}

ShardedReport ShardedOrchestrator::run() {
  start();
  while (round_ < rounds_total_) run_round();
  finish();
  return report_;
}

core::Orchestrator& ShardedOrchestrator::zone_orchestrator(int z) {
  return *worlds_[static_cast<std::size_t>(z)]->orch;
}

net::Network& ShardedOrchestrator::zone_network(int z) {
  return *worlds_[static_cast<std::size_t>(z)]->network;
}

obs::Recorder& ShardedOrchestrator::zone_recorder(int z) {
  return worlds_[static_cast<std::size_t>(z)]->recorder;
}

scenario::ServingLoop* ShardedOrchestrator::zone_serving(int z) {
  return worlds_[static_cast<std::size_t>(z)]->serving.get();
}

net::NodeId ShardedOrchestrator::local_node(int z, net::NodeId global) const {
  const World& w = *worlds_[static_cast<std::size_t>(z)];
  if (global < 0 ||
      global >= static_cast<net::NodeId>(w.global_to_local.size())) {
    return net::kInvalidNode;
  }
  return w.global_to_local[static_cast<std::size_t>(global)];
}

net::NodeId ShardedOrchestrator::global_node(int z, net::NodeId local) const {
  const World& w = *worlds_[static_cast<std::size_t>(z)];
  if (local < 0 || local >= static_cast<net::NodeId>(w.local_to_global.size())) {
    return net::kInvalidNode;
  }
  return w.local_to_global[static_cast<std::size_t>(local)];
}

std::string ShardedOrchestrator::merged_journal() {
  // Semantics are unchanged from the original stable_sort implementation:
  // zone lines (annotated with their zone) in zone order, coordinator
  // lines last, ordered by t_us with source order breaking ties. Each
  // per-source journal is already time-ordered — recorders journal
  // monotonically — so an incremental k-way heap merge keyed on
  // (t, source index) reproduces the stable sort byte for byte without
  // materializing or re-sorting the whole city's line set. A non-monotonic
  // source (never expected; defensive) falls back to sorting indices.
  struct Source {
    std::string jsonl;       // owns the bytes the views point into
    std::string annotation;  // ",\"zone\":N}" for zones, "" for coordinator
    std::vector<std::pair<long long, std::string_view>> lines;
    std::size_t next = 0;
    bool sorted = true;
  };
  std::vector<Source> sources;
  sources.reserve(worlds_.size() + 1);
  std::size_t total_bytes = 0;
  const auto add_source = [&sources, &total_bytes](std::string jsonl, int zone) {
    Source src;
    src.jsonl = std::move(jsonl);
    if (zone >= 0) src.annotation = util::str_format(",\"zone\":%d}", zone);
    long long prev = std::numeric_limits<long long>::min();
    std::size_t start = 0;
    const std::string& text = src.jsonl;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      if (end > start) {
        const std::string_view line(text.data() + start, end - start);
        const long long t = std::strtoll(line.data() + 8, nullptr, 10);
        if (t < prev) src.sorted = false;
        prev = t;
        src.lines.emplace_back(t, line);
        total_bytes += line.size() + src.annotation.size() + 1;
      }
      start = end + 1;
    }
    sources.push_back(std::move(src));
  };
  for (auto& w : worlds_) {
    add_source(w->recorder.journal().to_jsonl(), w->zone);
  }
  add_source(coordinator_.journal().to_jsonl(), -1);

  std::string out;
  out.reserve(total_bytes);
  const auto append = [&out](Source& src) {
    const std::string_view line = src.lines[src.next++].second;
    if (!src.annotation.empty() && !line.empty() && line.back() == '}') {
      out.append(line.data(), line.size() - 1);
      out += src.annotation;
    } else {
      out.append(line.data(), line.size());
    }
    out += '\n';
  };

  bool all_sorted = true;
  for (const Source& src : sources) all_sorted &= src.sorted;
  if (all_sorted) {
    // Min-heap of (next timestamp, source index); the index tiebreak is
    // exactly stable_sort's preserved concatenation order.
    struct Head {
      long long t;
      std::size_t src;
    };
    const auto later = [](const Head& a, const Head& b) {
      if (a.t != b.t) return a.t > b.t;
      return a.src > b.src;
    };
    std::vector<Head> heap;
    heap.reserve(sources.size());
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (!sources[s].lines.empty()) {
        heap.push_back({sources[s].lines.front().first, s});
      }
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const std::size_t s = heap.back().src;
      heap.pop_back();
      Source& src = sources[s];
      append(src);
      if (src.next < src.lines.size()) {
        heap.push_back({src.lines[src.next].first, s});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    return out;
  }

  // Fallback: order (t, source, position) triples — the same total order
  // the merge produces, minus the monotonic-source assumption.
  struct Ref {
    long long t;
    std::size_t src;
    std::size_t idx;
  };
  std::vector<Ref> refs;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    for (std::size_t i = 0; i < sources[s].lines.size(); ++i) {
      refs.push_back({sources[s].lines[i].first, s, i});
    }
  }
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  for (const Ref& ref : refs) {
    Source& src = sources[ref.src];
    src.next = ref.idx;
    append(src);
  }
  return out;
}

}  // namespace bass::zone
