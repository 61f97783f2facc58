// Static mesh shape: named nodes and directed links with capacities.
// Capacities are mutable (that is the whole point of this paper); the set of
// nodes and links is fixed once built.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/types.h"

namespace bass::net {

struct Link {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Bps capacity = 0;
};

class Topology {
 public:
  NodeId add_node(std::string name = {});

  // Adds a bidirectional link as two directed links. Returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_link(NodeId a, NodeId b, Bps capacity_ab, Bps capacity_ba);
  std::pair<LinkId, LinkId> add_link(NodeId a, NodeId b, Bps capacity) {
    return add_link(a, b, capacity, capacity);
  }
  // Adds one directed link a->b. Unlike add_link it allows one-way and
  // parallel links; link_between keeps naming the first a->b link.
  LinkId add_directed_link(NodeId a, NodeId b, Bps capacity);

  int node_count() const { return static_cast<int>(node_names_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }

  const std::string& node_name(NodeId n) const { return node_names_.at(n); }
  const Link& link(LinkId l) const { return links_.at(l); }
  const std::vector<Link>& links() const { return links_; }

  void set_capacity(LinkId l, Bps capacity) { links_.at(l).capacity = capacity; }

  // Directed link from a to b, if the nodes are 1-hop neighbors.
  std::optional<LinkId> link_between(NodeId a, NodeId b) const;

  // Outgoing directed links of a node (for neighbor probing).
  const std::vector<LinkId>& out_links(NodeId n) const { return out_links_.at(n); }

  // Sum of outgoing link capacities — the "combined capacity across all of
  // the node's links" that BASS uses to rank nodes (§3.2.1).
  Bps total_out_capacity(NodeId n) const;

 private:
  std::vector<std::string> node_names_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::unordered_map<std::int64_t, LinkId> by_endpoints_;  // (src<<32|dst) -> link
};

}  // namespace bass::net
