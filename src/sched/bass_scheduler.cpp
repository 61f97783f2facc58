#include "sched/bass_scheduler.h"

#include "obs/recorder.h"
#include "sched/heuristics.h"
#include "sched/node_ranker.h"
#include "sched/packer.h"
#include "sched/scratch.h"

namespace bass::sched {

const char* heuristic_name(Heuristic h) {
  switch (h) {
    case Heuristic::kBreadthFirst: return "bfs";
    case Heuristic::kLongestPath: return "longest-path";
    case Heuristic::kAuto: return "auto";
  }
  return "?";
}

net::Bps crossing_bandwidth(const app::AppGraph& app, const Placement& placement) {
  net::Bps total = 0;
  for (const app::Edge& e : app.edges()) {
    if (node_of(placement, e.from) != node_of(placement, e.to)) total += e.bandwidth;
  }
  return total;
}

std::string BassScheduler::name() const {
  return std::string("bass-") + heuristic_name(heuristic_);
}

namespace {

util::Expected<Placement> pack(Heuristic heuristic, const PackInput& input) {
  const app::AppGraph& app = input.app;
  if (heuristic == Heuristic::kBreadthFirst) {
    return sequential_pack(input, bfs_order(app));
  }
  if (heuristic == Heuristic::kLongestPath) {
    return path_pack(input, longest_path_paths(app));
  }

  // kAuto: evaluate both and keep the placement with less mesh-crossing
  // bandwidth. Ties (including "both failed") resolve to BFS.
  auto bfs = sequential_pack(input, bfs_order(app));
  auto lp = path_pack(input, longest_path_paths(app));
  if (!bfs.ok()) return lp;
  if (!lp.ok()) return bfs;
  return crossing_bandwidth(app, lp.value()) < crossing_bandwidth(app, bfs.value())
             ? std::move(lp)
             : std::move(bfs);
}

}  // namespace

util::Expected<Placement> BassScheduler::schedule(const app::AppGraph& app,
                                                  const cluster::ClusterState& cluster,
                                                  const NetworkView& view) const {
  BASS_OBS_SCOPE("sched.schedule_us");
  std::string error;
  if (!app.validate(&error)) return util::make_error(error);

  // The ranking is built in the thread scratch's vector, lent to the
  // PackInput for this call and handed back afterwards.
  detail::PackScratch& s = detail::thread_scratch();
  PackInput input{app, cluster, view, std::move(s.ranked)};
  detail::rank_into(cluster, view, input.ranked_nodes);
  auto result = input.ranked_nodes.empty()
                    ? util::Expected<Placement>(util::make_error("no schedulable nodes"))
                    : pack(heuristic_, input);
  s.ranked = std::move(input.ranked_nodes);
  return result;
}

}  // namespace bass::sched
