// The scheduler's window onto the mesh. BASS schedules against *measured*
// link capacities (the net-monitor's probe cache), while tests and oracle
// experiments can schedule against the live simulator truth; both sides of
// that choice implement this interface.
#pragma once

#include <span>

#include "net/network.h"
#include "net/types.h"

namespace bass::sched {

class NetworkView {
 public:
  virtual ~NetworkView() = default;

  virtual int link_count() const = 0;
  virtual net::Bps link_capacity(net::LinkId link) const = 0;
  // Directed links traversed from src to dst (empty when src == dst or
  // unreachable); valid for the underlying routing table's lifetime.
  virtual std::span<const net::LinkId> path(net::NodeId src, net::NodeId dst) const = 0;
  // Combined outgoing link capacity of a node (for node ranking).
  virtual net::Bps node_link_capacity(net::NodeId node) const = 0;

  // One-way propagation latency of the routed path (0 when colocated) —
  // the packer checks edge latency requirements against it (§3.2 lists
  // latency among the placement constraints).
  virtual sim::Duration path_latency(net::NodeId src, net::NodeId dst) const = 0;

  // Bottleneck capacity along the path (derived).
  net::Bps path_capacity(net::NodeId src, net::NodeId dst) const;
};

// Ground-truth view straight off the live simulated network.
class LiveNetworkView final : public NetworkView {
 public:
  explicit LiveNetworkView(const net::Network& network) : network_(&network) {}

  int link_count() const override { return network_->topology().link_count(); }
  net::Bps link_capacity(net::LinkId link) const override {
    return network_->topology().link(link).capacity;
  }
  std::span<const net::LinkId> path(net::NodeId src, net::NodeId dst) const override {
    return network_->routing().path(src, dst);
  }
  net::Bps node_link_capacity(net::NodeId node) const override {
    return network_->topology().total_out_capacity(node);
  }
  sim::Duration path_latency(net::NodeId src, net::NodeId dst) const override {
    return network_->path_latency(src, dst);
  }

 private:
  const net::Network* network_;
};

}  // namespace bass::sched
