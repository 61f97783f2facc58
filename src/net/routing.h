// Mesh routing with deterministic tie-breaking. The paper assumes routing
// is decentralized and out of the orchestrator's control (§1, §3.1); BASS
// only *observes* paths (via traceroute) and must work with whatever the
// mesh runs. Two steady-state models are provided:
//
//  * kMinHop — shortest path by hop count (802.11s default metric's shape);
//  * kWidestPath — maximize the bottleneck capacity along the path, ties
//    broken by fewer hops (the shape of link-quality metrics like
//    BATMAN/OLSR-ETX, which route around weak links).
//
// Routes are held stable for the table's lifetime — real mesh protocols
// damp route flapping, and the paper's BASS explicitly does not chase
// routing dynamics. Widest paths are computed against a snapshot of the
// link capacities taken at construction, so later capacity changes (trace
// playback, faults) never move a route; build a new table to re-route.
//
// Route state is proportional to the routes actually asked for, not to
// the number of node pairs:
//
//  * Construction is O(nodes + links). A source's route tree (one in-link
//    per node: BFS in out-link insertion order, or a heap-driven widest
//    Dijkstra) is built the first time path()/hops()/reachable() needs it.
//  * Under kMinHop the route to an out-neighbour is the first out-link of
//    the source that reaches it — exactly what BFS picks — so one-hop
//    lookups (the monitor's per-link probes) never build a tree.
//  * A route is copied into one append-only, chunked link pool on its first
//    use. Chunks never move, so the span path() returns stays valid, with
//    unchanged contents, for the table's lifetime. Every one-link route is
//    pre-interned at construction (one pool slot per link).
//
// The topology's node and link sets must not change after construction
// (capacities may).
//
// Threads: the lazy fill mutates state inside const methods without locks.
// A table must only be used by one thread at a time; in practice each
// world's table is touched only by the thread running that world (zone
// rounds and sweep runs never read another world's routing).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/topology.h"
#include "net/types.h"

namespace bass::obs {
class Counter;
class Gauge;
}  // namespace bass::obs

namespace bass::net {

enum class RoutingPolicy { kMinHop, kWidestPath };

class RoutingTable {
 public:
  explicit RoutingTable(const Topology& topo,
                        RoutingPolicy policy = RoutingPolicy::kMinHop);
  // Routes point into the table's own pool; copies would alias it.
  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;

  RoutingPolicy policy() const { return policy_; }

  // Directed links traversed from src to dst; empty when src == dst or dst
  // is unreachable. Our "traceroute". The span is valid for the table's
  // lifetime, so callers (Network's entity cache, the allocator) hold it
  // instead of copying.
  std::span<const LinkId> path(NodeId src, NodeId dst) const;

  // Number of hops from src to dst (0 when colocated or unreachable).
  int hops(NodeId src, NodeId dst) const;

  bool reachable(NodeId src, NodeId dst) const;

  // Route-state accounting: source trees built, multi-hop routes copied
  // into the pool, and the pool's bytes (one-link routes included).
  std::int64_t trees_built() const { return trees_built_; }
  std::int64_t routes_interned() const { return routes_interned_; }
  std::size_t pool_bytes() const { return pool_bytes_; }

  // Mirrors the accounting above into metrics as it changes (any may be
  // null); the current totals are added/set on attach.
  void set_instruments(obs::Counter* trees, obs::Counter* routes,
                       obs::Gauge* pool_bytes);

 private:
  // One node of a source's route tree.
  struct TreeNode {
    LinkId in_link = kInvalidLink;  // last link of the route; invalid = unreachable
    std::uint32_t hops = 0;
    const LinkId* route = nullptr;  // interned route, null until first use
  };

  void check_nodes(NodeId src, NodeId dst) const;
  // Min-hop one-hop route for a source without a tree: the first out-link
  // of src reaching dst, or null (no shortcut applies; use the tree).
  const LinkId* shortcut(NodeId src, NodeId dst) const;
  // src's route tree, built on first use.
  TreeNode* tree(NodeId src) const;
  void build_min_hop(NodeId src, TreeNode* tree) const;
  void build_widest(NodeId src, TreeNode* tree) const;
  // Copies the route to `dst` into the pool (one-link routes are already
  // there) and returns its first link.
  const LinkId* intern(const TreeNode* tree, NodeId dst) const;

  const Topology* topo_;
  RoutingPolicy policy_;
  std::vector<Bps> capacity_;  // construction-time snapshot (widest only)

  mutable std::vector<std::unique_ptr<TreeNode[]>> trees_;  // per source
  // The link pool: chunk 0 holds every one-link route (chunk0[l] == l);
  // later chunks are filled front to back and never reallocated.
  mutable std::vector<std::unique_ptr<LinkId[]>> chunks_;
  mutable std::size_t chunk_used_ = 0;
  mutable std::size_t chunk_size_ = 0;

  // Tree-build scratch, reused across sources.
  mutable std::vector<NodeId> queue_;
  mutable std::vector<Bps> width_;
  mutable std::vector<std::uint8_t> done_;
  struct HeapEntry {
    Bps width;
    std::uint32_t hops;
    NodeId node;
  };
  mutable std::vector<HeapEntry> heap_;

  mutable std::int64_t trees_built_ = 0;
  mutable std::int64_t routes_interned_ = 0;
  mutable std::size_t pool_bytes_ = 0;
  obs::Counter* m_trees_ = nullptr;
  obs::Counter* m_routes_ = nullptr;
  obs::Gauge* m_pool_bytes_ = nullptr;
};

}  // namespace bass::net
