#include "sched/k3s_scheduler.h"

#include <vector>

#include "obs/recorder.h"

#include "util/strings.h"

namespace bass::sched {

util::Expected<Placement> K3sScheduler::schedule(const app::AppGraph& app,
                                                 const cluster::ClusterState& cluster,
                                                 const NetworkView& view) const {
  BASS_OBS_SCOPE("sched.schedule_us");
  (void)view;  // bandwidth-oblivious by design
  std::string error;
  if (!app.validate(&error)) return util::make_error(error);

  const std::vector<net::NodeId> nodes = cluster.schedulable_nodes();
  if (nodes.empty()) return util::make_error("no schedulable nodes");
  // Free resources by NodeId, debited as pods land.
  std::vector<std::int64_t> cpu_free(cluster.id_bound(), 0);
  std::vector<std::int64_t> mem_free(cluster.id_bound(), 0);
  for (net::NodeId n : nodes) {
    cpu_free[static_cast<std::size_t>(n)] = cluster.cpu_free(n);
    mem_free[static_cast<std::size_t>(n)] = cluster.memory_free(n);
  }

  Placement placement;
  // Pods arrive at the scheduler one at a time, in submission (id) order.
  for (app::ComponentId c = 0; c < app.component_count(); ++c) {
    const auto& comp = app.component(c);
    if (comp.pinned_node) {
      placement[c] = *comp.pinned_node;
      continue;
    }
    net::NodeId best = net::kInvalidNode;
    double best_score = -1.0;
    for (net::NodeId n : nodes) {
      const std::int64_t cpu = cpu_free[static_cast<std::size_t>(n)];
      const std::int64_t mem = mem_free[static_cast<std::size_t>(n)];
      if (cpu < comp.cpu_milli || mem < comp.memory_mb) continue;
      // Average free fraction after placing the pod; LeastAllocated prefers
      // the emptiest node, MostAllocated the fullest that still fits.
      const auto& spec = cluster.spec(n);
      const double cpu_frac =
          spec.cpu_milli == 0
              ? 0.0
              : static_cast<double>(cpu - comp.cpu_milli) /
                    static_cast<double>(spec.cpu_milli);
      const double mem_frac =
          spec.memory_mb == 0
              ? 0.0
              : static_cast<double>(mem - comp.memory_mb) /
                    static_cast<double>(spec.memory_mb);
      double score = (cpu_frac + mem_frac) / 2.0;
      if (scoring_ == K3sScoring::kMostAllocated) score = 1.0 - score;
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    if (best == net::kInvalidNode) {
      return util::make_error(util::str_format(
          "k3s: no node fits component '%s'", comp.name.c_str()));
    }
    cpu_free[static_cast<std::size_t>(best)] -= comp.cpu_milli;
    mem_free[static_cast<std::size_t>(best)] -= comp.memory_mb;
    placement[c] = best;
  }
  return placement;
}

}  // namespace bass::sched
