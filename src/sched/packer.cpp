#include "sched/packer.h"

#include "obs/recorder.h"
#include "sched/scratch.h"
#include "util/strings.h"

namespace bass::sched {

namespace {

// Tracks hypothetical resource usage and link bandwidth reservations while
// a placement is being built. All state lives in the thread's PackScratch,
// so at most one PackState may be alive per thread.
class PackState {
 public:
  explicit PackState(const PackInput& input)
      : input_(input), s_(detail::thread_scratch()) {
    const cluster::ClusterState& cluster = input.cluster;
    s_.cpu_free.assign(cluster.id_bound(), 0);
    s_.mem_free.assign(cluster.id_bound(), 0);
    for (net::NodeId n : cluster.nodes()) {
      s_.cpu_free[static_cast<std::size_t>(n)] = cluster.cpu_free(n);
      s_.mem_free[static_cast<std::size_t>(n)] = cluster.memory_free(n);
    }
    const auto comps = static_cast<std::size_t>(input.app.component_count());
    s_.node_of.assign(comps, net::kInvalidNode);
    s_.placed_order.clear();
    s_.placed_order.reserve(comps);
    detail::reset_links(s_, static_cast<std::size_t>(input.view.link_count()));
  }

  // Components inserted in the order they were placed, so iterating the
  // map visits them in the same sequence as a map filled during packing.
  Placement placement() const {
    Placement p;
    for (app::ComponentId c : s_.placed_order) p.emplace(c, placed_on(c));
    return p;
  }

  // Pins pre-placed components (client attachment points) before packing.
  void place_pinned() {
    for (app::ComponentId c = 0; c < input_.app.component_count(); ++c) {
      const auto& comp = input_.app.component(c);
      if (comp.pinned_node) place(c, *comp.pinned_node);
    }
  }

  bool placed(app::ComponentId c) const { return placed_on(c) != net::kInvalidNode; }

  bool can_place(app::ComponentId c, net::NodeId node) {
    const auto& comp = input_.app.component(c);
    if (!input_.cluster.has_node(node)) return false;
    if (s_.cpu_free[static_cast<std::size_t>(node)] < comp.cpu_milli) return false;
    if (s_.mem_free[static_cast<std::size_t>(node)] < comp.memory_mb) return false;
    const bool fits = bandwidth_fits(c, node);
    detail::clear_additional(s_);
    return fits;
  }

  void place(app::ComponentId c, net::NodeId node) {
    const auto& comp = input_.app.component(c);
    // A pinned node outside the cluster has no resources to account.
    if (static_cast<std::size_t>(node) < s_.cpu_free.size()) {
      s_.cpu_free[static_cast<std::size_t>(node)] -= comp.cpu_milli;
      s_.mem_free[static_cast<std::size_t>(node)] -= comp.memory_mb;
    }
    s_.node_of[static_cast<std::size_t>(c)] = node;
    s_.placed_order.push_back(c);
    // Reserve bandwidth on the paths of the edges that just materialized.
    for (const app::Edge& e : input_.app.edges()) {
      if (e.from != c && e.to != c) continue;
      const app::ComponentId other = (e.from == c) ? e.to : e.from;
      if (other == c || !placed(other)) continue;
      const net::NodeId from_node = placed_on(e.from);
      const net::NodeId to_node = placed_on(e.to);
      if (from_node == to_node) continue;
      for (net::LinkId l : input_.view.path(from_node, to_node)) {
        s_.reserved[static_cast<std::size_t>(l)] += e.bandwidth;
      }
    }
  }

  // First-fit over the ranked nodes; kInvalidNode if nothing fits.
  net::NodeId first_fit(app::ComponentId c) {
    for (net::NodeId n : input_.ranked_nodes) {
      if (can_place(c, n)) return n;
    }
    return net::kInvalidNode;
  }

 private:
  net::NodeId placed_on(app::ComponentId c) const {
    return s_.node_of[static_cast<std::size_t>(c)];
  }

  // Bandwidth feasibility: every already-placed edge of c that would cross
  // the mesh must fit within residual link capacity. The edges are checked
  // *cumulatively* — two of c's edges whose paths share a link must fit
  // together, not just one at a time. Leaves the accumulator for the
  // caller to clear.
  bool bandwidth_fits(app::ComponentId c, net::NodeId node) {
    for (const app::Edge& e : input_.app.edges()) {
      net::NodeId from_node = net::kInvalidNode;
      net::NodeId to_node = net::kInvalidNode;
      if (e.from == c) {
        if (!placed(e.to)) continue;
        from_node = node;
        to_node = placed_on(e.to);
      } else if (e.to == c) {
        if (!placed(e.from)) continue;
        from_node = placed_on(e.from);
        to_node = node;
      } else {
        continue;
      }
      if (from_node == to_node) continue;
      const std::span<const net::LinkId> path = input_.view.path(from_node, to_node);
      if (path.empty()) return false;  // unreachable
      if (e.max_latency > 0 &&
          input_.view.path_latency(from_node, to_node) > e.max_latency) {
        return false;  // latency constraint (§3.2)
      }
      if (!detail::add_fits(s_, path, e.bandwidth, input_.view)) return false;
    }
    return true;
  }

  const PackInput& input_;
  detail::PackScratch& s_;
};

util::Error pack_failure(const app::AppGraph& app, app::ComponentId c) {
  return util::make_error(util::str_format(
      "no node can host component '%s' of app '%s' (cpu/mem/bandwidth exhausted)",
      app.component(c).name.c_str(), app.name().c_str()));
}

}  // namespace

util::Expected<Placement> sequential_pack(const PackInput& input,
                                          const std::vector<app::ComponentId>& order) {
  BASS_OBS_SCOPE("sched.sequential_pack_us");
  PackState state(input);
  state.place_pinned();
  std::size_t idx = 0;
  for (app::ComponentId c : order) {
    if (state.placed(c)) continue;  // pinned
    // Fill the current node; advance when it can no longer host.
    while (idx < input.ranked_nodes.size() && !state.can_place(c, input.ranked_nodes[idx])) {
      ++idx;
    }
    net::NodeId target =
        idx < input.ranked_nodes.size() ? input.ranked_nodes[idx] : net::kInvalidNode;
    if (target == net::kInvalidNode) {
      // Advance-only exhausted the node list; fall back to first-fit so
      // stranded capacity on earlier nodes can still be used.
      idx = input.ranked_nodes.size();  // stay exhausted for later components
      target = state.first_fit(c);
      if (target == net::kInvalidNode) return pack_failure(input.app, c);
    }
    state.place(c, target);
  }
  return state.placement();
}

util::Expected<Placement> path_pack(const PackInput& input,
                                    const std::vector<std::vector<app::ComponentId>>& paths) {
  BASS_OBS_SCOPE("sched.path_pack_us");
  PackState state(input);
  state.place_pinned();
  for (const auto& path : paths) {
    // Each path restarts from the top-ranked node and advances forward so
    // the chain stays on as few nodes as possible.
    std::size_t idx = 0;
    for (app::ComponentId c : path) {
      if (state.placed(c)) continue;  // pinned
      while (idx < input.ranked_nodes.size() && !state.can_place(c, input.ranked_nodes[idx])) {
        ++idx;
      }
      net::NodeId target =
          idx < input.ranked_nodes.size() ? input.ranked_nodes[idx] : net::kInvalidNode;
      if (target == net::kInvalidNode) {
        target = state.first_fit(c);
        if (target == net::kInvalidNode) return pack_failure(input.app, c);
      }
      state.place(c, target);
    }
  }
  return state.placement();
}

}  // namespace bass::sched
