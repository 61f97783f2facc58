#include "sched/rescheduler.h"

#include "sched/scratch.h"

namespace bass::sched {

namespace {

// Reserves, in s.reserved, the bandwidth of every edge not touching the
// migrating component at its current nodes: the load any target inherits.
void reserve_other_edges(detail::PackScratch& s, const app::AppGraph& app,
                         const Placement& placement, app::ComponentId component,
                         const NetworkView& view) {
  detail::reset_links(s, static_cast<std::size_t>(view.link_count()));
  for (const app::Edge& e : app.edges()) {
    if (e.from == component || e.to == component) continue;
    const net::NodeId a = node_of(placement, e.from);
    const net::NodeId b = node_of(placement, e.to);
    if (a == net::kInvalidNode || b == net::kInvalidNode || a == b) continue;
    for (net::LinkId l : view.path(a, b)) s.reserved[static_cast<std::size_t>(l)] += e.bandwidth;
  }
}

// Residual link capacity check: can the component's edges be carried if it
// moves to `target`, on top of the other edges' reservation? Leaves the
// accumulator for the caller to clear.
bool own_edges_fit(detail::PackScratch& s, const app::AppGraph& app,
                   const Placement& placement, app::ComponentId component,
                   net::NodeId target, const NetworkView& view) {
  for (const app::Edge& e : app.edges()) {
    if (e.from != component && e.to != component) continue;
    const app::ComponentId other = (e.from == component) ? e.to : e.from;
    const net::NodeId other_node = node_of(placement, other);
    if (other_node == net::kInvalidNode || other_node == target) continue;
    const net::NodeId from_node = (e.from == component) ? target : other_node;
    const net::NodeId to_node = (e.from == component) ? other_node : target;
    const std::span<const net::LinkId> path = view.path(from_node, to_node);
    if (path.empty()) return false;
    if (e.max_latency > 0 && view.path_latency(from_node, to_node) > e.max_latency) {
      return false;
    }
    if (!detail::add_fits(s, path, e.bandwidth, view)) return false;
  }
  return true;
}

}  // namespace

std::optional<net::NodeId> pick_migration_target(const app::AppGraph& app,
                                                 const Placement& placement,
                                                 app::ComponentId component,
                                                 const cluster::ClusterState& cluster,
                                                 const NetworkView& view) {
  const net::NodeId current = node_of(placement, component);
  const auto& comp = app.component(component);
  if (comp.pinned_node) return std::nullopt;  // attachment points never move

  detail::PackScratch& s = detail::thread_scratch();
  // Count deployed dependencies (in either direction) per node.
  s.dep_count.assign(cluster.id_bound(), 0);
  for (const app::Edge& e : app.edges()) {
    app::ComponentId other = app::kInvalidComponent;
    if (e.from == component) other = e.to;
    if (e.to == component) other = e.from;
    if (other == app::kInvalidComponent) continue;
    const net::NodeId n = node_of(placement, other);
    if (n != net::kInvalidNode && static_cast<std::size_t>(n) < s.dep_count.size()) {
      ++s.dep_count[static_cast<std::size_t>(n)];
    }
  }

  // Candidates ordered: most co-deployed dependencies first, then the
  // generic node ranking; the current node is excluded (a migration must
  // actually move the component).
  detail::rank_keys(cluster, view, &s.dep_count, s.keys);

  bool reserved = false;
  for (const detail::RankKey& k : s.keys) {
    const net::NodeId n = k.node;
    if (n == current) continue;
    if (!cluster.can_fit(n, comp.cpu_milli, comp.memory_mb)) continue;
    if (!reserved) {
      reserve_other_edges(s, app, placement, component, view);
      reserved = true;
    }
    const bool fits = own_edges_fit(s, app, placement, component, n, view);
    detail::clear_additional(s);
    if (fits) return n;
  }

  // Best effort: when the mesh is so degraded that no target satisfies
  // every bandwidth constraint, still move. Preferring a dependency's node
  // co-locates a communicating pair and *removes* its traffic from the
  // mesh; failing that, any node with spare compute gets the component off
  // its starved links (the ranked order already favours well-connected
  // nodes). The ranking is dependency-count-major, so both preferences are
  // one pass.
  for (const detail::RankKey& k : s.keys) {
    if (k.node == current) continue;
    if (!cluster.can_fit(k.node, comp.cpu_milli, comp.memory_mb)) continue;
    return k.node;
  }
  return std::nullopt;
}

}  // namespace bass::sched
