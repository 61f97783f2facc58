// Compute-side resource accounting: per-node CPU (milli-cores, Kubernetes
// style) and memory (MiB) capacities with allocation tracking. Nodes are
// identified by their network NodeId so placement ties directly into the
// mesh topology.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/types.h"

namespace bass::cluster {

struct NodeSpec {
  std::int64_t cpu_milli = 0;   // 1000 = one core
  std::int64_t memory_mb = 0;   // MiB
  bool schedulable = true;      // false for control-plane nodes
};

struct NodeUsage {
  std::int64_t cpu_milli = 0;
  std::int64_t memory_mb = 0;
};

class ClusterState {
 public:
  // Registers a node. `node` must match the network topology's NodeId.
  void add_node(net::NodeId node, NodeSpec spec);

  // Cordons/uncordons a node after registration (kubectl-cordon style).
  void set_schedulable(net::NodeId node, bool schedulable);

  bool has_node(net::NodeId node) const;
  const NodeSpec& spec(net::NodeId node) const;
  const NodeUsage& usage(net::NodeId node) const;

  std::int64_t cpu_free(net::NodeId node) const;
  std::int64_t memory_free(net::NodeId node) const;

  // True if the node is schedulable and can host the extra demand.
  bool can_fit(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb) const;

  // Reserves resources; returns false (and changes nothing) if it can't fit.
  bool allocate(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb);
  void release(net::NodeId node, std::int64_t cpu_milli, std::int64_t memory_mb);

  // All registered nodes, in registration order.
  const std::vector<net::NodeId>& nodes() const { return order_; }
  std::vector<net::NodeId> schedulable_nodes() const;
  // One past the largest registered NodeId: the length of a dense array
  // indexed by NodeId.
  std::size_t id_bound() const { return entries_.size(); }

 private:
  struct Entry {
    NodeSpec spec;
    NodeUsage usage;
  };
  const Entry& entry(net::NodeId node) const;
  Entry& entry(net::NodeId node);

  std::vector<std::optional<Entry>> entries_;  // indexed by NodeId
  std::vector<net::NodeId> order_;
};

}  // namespace bass::cluster
