#include "net/topology.h"

#include <cassert>

namespace bass::net {

namespace {
std::int64_t endpoint_key(NodeId a, NodeId b) {
  return (static_cast<std::int64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}
}  // namespace

NodeId Topology::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  if (name.empty()) name = "node" + std::to_string(id);
  node_names_.push_back(std::move(name));
  out_links_.emplace_back();
  return id;
}

std::pair<LinkId, LinkId> Topology::add_link(NodeId a, NodeId b, Bps capacity_ab,
                                             Bps capacity_ba) {
  assert(!link_between(a, b).has_value() && "duplicate link");
  const LinkId ab = add_directed_link(a, b, capacity_ab);
  const LinkId ba = add_directed_link(b, a, capacity_ba);
  return {ab, ba};
}

LinkId Topology::add_directed_link(NodeId a, NodeId b, Bps capacity) {
  assert(a != b && a >= 0 && b >= 0 && a < node_count() && b < node_count());
  const LinkId ab = static_cast<LinkId>(links_.size());
  links_.push_back({a, b, capacity});
  out_links_[a].push_back(ab);
  by_endpoints_.try_emplace(endpoint_key(a, b), ab);
  return ab;
}

std::optional<LinkId> Topology::link_between(NodeId a, NodeId b) const {
  const auto it = by_endpoints_.find(endpoint_key(a, b));
  if (it == by_endpoints_.end()) return std::nullopt;
  return it->second;
}

Bps Topology::total_out_capacity(NodeId n) const {
  Bps total = 0;
  for (LinkId l : out_links_.at(n)) total += links_[l].capacity;
  return total;
}

}  // namespace bass::net
