#include "sched/node_ranker.h"

#include <algorithm>
#include <tuple>

#include "sched/scratch.h"

namespace bass::sched {

namespace detail {

void rank_keys(const cluster::ClusterState& cluster, const NetworkView& view,
               const std::vector<int>* dep_count, std::vector<RankKey>& keys) {
  keys.clear();
  keys.reserve(cluster.nodes().size());
  for (net::NodeId n : cluster.nodes()) {
    if (!cluster.spec(n).schedulable) continue;
    keys.push_back({dep_count ? (*dep_count)[static_cast<std::size_t>(n)] : 0,
                    cluster.cpu_free(n), view.node_link_capacity(n), cluster.memory_free(n),
                    n});
  }
  std::sort(keys.begin(), keys.end(), [](const RankKey& a, const RankKey& b) {
    return std::make_tuple(-a.deps, -a.cpu_free, -a.link_capacity, -a.memory_free, a.node) <
           std::make_tuple(-b.deps, -b.cpu_free, -b.link_capacity, -b.memory_free, b.node);
  });
}

void rank_into(const cluster::ClusterState& cluster, const NetworkView& view,
               std::vector<net::NodeId>& ranked) {
  std::vector<RankKey>& keys = thread_scratch().keys;
  rank_keys(cluster, view, nullptr, keys);
  ranked.clear();
  ranked.reserve(keys.size());
  for (const RankKey& k : keys) ranked.push_back(k.node);
}

}  // namespace detail

std::vector<net::NodeId> rank_nodes(const cluster::ClusterState& cluster,
                                    const NetworkView& view) {
  std::vector<net::NodeId> nodes;
  detail::rank_into(cluster, view, nodes);
  return nodes;
}

}  // namespace bass::sched
