#include "sched/rescheduler.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sched/node_ranker.h"

namespace bass::sched {

namespace {

// Residual link capacity check: can the component's edges be carried if it
// moves to `target`, given the bandwidth already implied by the rest of the
// deployment?
bool bandwidth_feasible(const app::AppGraph& app, const Placement& placement,
                        app::ComponentId component, net::NodeId target,
                        const NetworkView& view) {
  std::vector<net::Bps> reserved(static_cast<std::size_t>(view.link_count()), 0);
  // Reserve for all edges not touching the migrating component, at their
  // current nodes.
  for (const app::Edge& e : app.edges()) {
    if (e.from == component || e.to == component) continue;
    const net::NodeId a = node_of(placement, e.from);
    const net::NodeId b = node_of(placement, e.to);
    if (a == net::kInvalidNode || b == net::kInvalidNode || a == b) continue;
    for (net::LinkId l : view.path(a, b)) reserved[static_cast<std::size_t>(l)] += e.bandwidth;
  }
  // Now add the component's own edges from `target` and check capacity.
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
    for (net::LinkId l : path) {
      reserved[static_cast<std::size_t>(l)] += e.bandwidth;
      if (reserved[static_cast<std::size_t>(l)] > view.link_capacity(l)) return false;
    }
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

  // Count deployed dependencies (in either direction) per node.
  std::unordered_map<net::NodeId, int> dep_count;
  for (const app::Edge& e : app.edges()) {
    app::ComponentId other = app::kInvalidComponent;
    if (e.from == component) other = e.to;
    if (e.to == component) other = e.from;
    if (other == app::kInvalidComponent) continue;
    const net::NodeId n = node_of(placement, other);
    if (n != net::kInvalidNode) ++dep_count[n];
  }

  // Candidates ordered: most co-deployed dependencies first, then the
  // generic node ranking; the current node is excluded (a migration must
  // actually move the component).
  std::vector<net::NodeId> ranked = rank_nodes(cluster, view);
  std::stable_sort(ranked.begin(), ranked.end(), [&](net::NodeId a, net::NodeId b) {
    const int da = dep_count.count(a) ? dep_count.at(a) : 0;
    const int db = dep_count.count(b) ? dep_count.at(b) : 0;
    return da > db;
  });

  for (net::NodeId n : ranked) {
    if (n == current) continue;
    if (!cluster.can_fit(n, comp.cpu_milli, comp.memory_mb)) continue;
    if (!bandwidth_feasible(app, placement, component, n, view)) continue;
    return n;
  }

  // Best effort: when the mesh is so degraded that no target satisfies
  // every bandwidth constraint, still move. Preferring a dependency's node
  // co-locates a communicating pair and *removes* its traffic from the
  // mesh; failing that, any node with spare compute gets the component off
  // its starved links (the ranked order already favours well-connected
  // nodes). `ranked` is dependency-count-major, so both preferences are
  // one pass.
  for (net::NodeId n : ranked) {
    if (n == current) continue;
    if (!cluster.can_fit(n, comp.cpu_milli, comp.memory_mb)) continue;
    return n;
  }
  return std::nullopt;
}

}  // namespace bass::sched
