#include "sched/packer.h"

#include <unordered_map>

#include "obs/recorder.h"
#include "util/strings.h"

namespace bass::sched {

namespace {

// Tracks hypothetical resource usage and link bandwidth reservations while
// a placement is being built.
class PackState {
 public:
  explicit PackState(const PackInput& input)
      : input_(input),
        reserved_(static_cast<std::size_t>(input.view.link_count()), 0) {
    for (net::NodeId n : input_.cluster.nodes()) {
      cpu_free_[n] = input_.cluster.cpu_free(n);
      mem_free_[n] = input_.cluster.memory_free(n);
    }
  }

  const Placement& placement() const { return placement_; }

  // Pins pre-placed components (client attachment points) before packing.
  void place_pinned() {
    for (app::ComponentId c = 0; c < input_.app.component_count(); ++c) {
      const auto& comp = input_.app.component(c);
      if (comp.pinned_node) place(c, *comp.pinned_node);
    }
  }

  bool placed(app::ComponentId c) const { return placement_.count(c) != 0; }

  bool can_place(app::ComponentId c, net::NodeId node) const {
    const auto& comp = input_.app.component(c);
    if (!input_.cluster.has_node(node)) return false;
    if (cpu_free_.at(node) < comp.cpu_milli) return false;
    if (mem_free_.at(node) < comp.memory_mb) return false;
    // Bandwidth feasibility: every already-placed edge of c that would
    // cross the mesh must fit within residual link capacity. The edges are
    // checked *cumulatively* — two of c's edges whose paths share a link
    // must fit together, not just one at a time.
    std::unordered_map<net::LinkId, net::Bps> additional;
    for (const app::Edge& e : input_.app.edges()) {
      app::ComponentId other = app::kInvalidComponent;
      net::NodeId from_node = net::kInvalidNode;
      net::NodeId to_node = net::kInvalidNode;
      if (e.from == c) {
        other = e.to;
        if (!placed(other)) continue;
        from_node = node;
        to_node = placement_.at(other);
      } else if (e.to == c) {
        other = e.from;
        if (!placed(other)) continue;
        from_node = placement_.at(other);
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
      for (net::LinkId l : path) {
        additional[l] += e.bandwidth;
        if (reserved_[static_cast<std::size_t>(l)] + additional[l] >
            input_.view.link_capacity(l)) {
          return false;
        }
      }
    }
    return true;
  }

  void place(app::ComponentId c, net::NodeId node) {
    const auto& comp = input_.app.component(c);
    cpu_free_[node] -= comp.cpu_milli;
    mem_free_[node] -= comp.memory_mb;
    placement_[c] = node;
    // Reserve bandwidth on the paths of the edges that just materialized.
    for (const app::Edge& e : input_.app.edges()) {
      if (e.from != c && e.to != c) continue;
      const app::ComponentId other = (e.from == c) ? e.to : e.from;
      if (other == c || !placed(other) || other == c) continue;
      const net::NodeId from_node = placement_.at(e.from);
      const net::NodeId to_node = placement_.at(e.to);
      if (from_node == to_node) continue;
      for (net::LinkId l : input_.view.path(from_node, to_node)) {
        reserved_[static_cast<std::size_t>(l)] += e.bandwidth;
      }
    }
  }

  // First-fit over the ranked nodes; kInvalidNode if nothing fits.
  net::NodeId first_fit(app::ComponentId c) const {
    for (net::NodeId n : input_.ranked_nodes) {
      if (can_place(c, n)) return n;
    }
    return net::kInvalidNode;
  }

 private:
  const PackInput& input_;
  Placement placement_;
  std::unordered_map<net::NodeId, std::int64_t> cpu_free_;
  std::unordered_map<net::NodeId, std::int64_t> mem_free_;
  std::vector<net::Bps> reserved_;
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
