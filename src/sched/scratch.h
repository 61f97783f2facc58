// Reusable working memory for the placement path (DESIGN.md §5c.2).
//
// rank_nodes, sequential_pack/path_pack and pick_migration_target keep all
// of their per-call state in one PackScratch per thread. The vectors are
// sized to the largest cluster/link count the thread has seen and are
// overwritten, never reallocated, on later calls — so once warm, placing an
// app touches the allocator only for its own app-sized results. A scratch
// is never shared between threads, and within a thread these callers never
// run inside one another, so they share fields freely.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "app/app_graph.h"
#include "cluster/cluster.h"
#include "net/types.h"
#include "sched/network_view.h"

namespace bass::sched::detail {

// A node's ranking key, computed once per ranking. Ordered ascending by
// (deps desc, cpu_free desc, link capacity desc, memory_free desc, id):
// `deps` is 0 for plain rank_nodes and the co-deployed dependency count
// for migration targets.
struct RankKey {
  int deps = 0;
  std::int64_t cpu_free = 0;
  net::Bps link_capacity = 0;
  std::int64_t memory_free = 0;
  net::NodeId node = net::kInvalidNode;
};

struct PackScratch {
  // rank_keys: one entry per schedulable node, sorted best first.
  std::vector<RankKey> keys;
  // BassScheduler::schedule lends this to PackInput::ranked_nodes.
  std::vector<net::NodeId> ranked;

  // Pack state, by NodeId / ComponentId / LinkId.
  std::vector<std::int64_t> cpu_free;
  std::vector<std::int64_t> mem_free;
  std::vector<net::NodeId> node_of;
  std::vector<app::ComponentId> placed_order;
  std::vector<net::Bps> reserved;

  // Per-link bandwidth a candidate would add, with the links it touched.
  // All zero between calls: every user clears what it touched.
  std::vector<net::Bps> additional;
  std::vector<net::LinkId> touched;

  // pick_migration_target: co-deployed dependencies by NodeId.
  std::vector<int> dep_count;
};

// The calling thread's scratch.
inline PackScratch& thread_scratch() {
  thread_local PackScratch scratch;
  return scratch;
}

// Fills `keys` with one key per schedulable node and sorts them best first.
// `dep_count` (by NodeId) supplies the deps field; null means all 0.
void rank_keys(const cluster::ClusterState& cluster, const NetworkView& view,
               const std::vector<int>* dep_count, std::vector<RankKey>& keys);

// rank_nodes into a caller-owned vector (overwritten), via `keys`.
void rank_into(const cluster::ClusterState& cluster, const NetworkView& view,
               std::vector<net::NodeId>& ranked);

// Sizes the per-link arrays for `links` links: `reserved` all zero, the
// accumulator kept all zero.
inline void reset_links(PackScratch& s, std::size_t links) {
  s.reserved.assign(links, 0);
  if (s.additional.size() < links) {
    s.additional.resize(links, 0);
    s.touched.reserve(links);
  }
}

// Adds `bw` on each link of `path` to the accumulator and reports whether
// every link still fits reserved + additional <= capacity; stops at the
// first link that does not.
inline bool add_fits(PackScratch& s, std::span<const net::LinkId> path, net::Bps bw,
                     const NetworkView& view) {
  for (net::LinkId l : path) {
    net::Bps& add = s.additional[static_cast<std::size_t>(l)];
    if (add == 0 && bw != 0) s.touched.push_back(l);
    add += bw;
    if (s.reserved[static_cast<std::size_t>(l)] + add > view.link_capacity(l)) return false;
  }
  return true;
}

// Zeroes the accumulator entries touched since the last clear.
inline void clear_additional(PackScratch& s) {
  for (net::LinkId l : s.touched) s.additional[static_cast<std::size_t>(l)] = 0;
  s.touched.clear();
}

}  // namespace bass::sched::detail
