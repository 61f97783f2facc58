// A placement maps every component of an application to a mesh node:
// entry c is the node of ComponentId c, kInvalidNode marks a component with
// no node, and a walk over it visits components in id order.
#pragma once

#include <cstddef>
#include <vector>

#include "app/app_graph.h"
#include "net/types.h"

namespace bass::sched {

using Placement = std::vector<net::NodeId>;

// kInvalidNode for an unplaced or out-of-range component.
inline net::NodeId node_of(const Placement& p, app::ComponentId c) {
  return c >= 0 && static_cast<std::size_t>(c) < p.size() ? p[static_cast<std::size_t>(c)]
                                                           : net::kInvalidNode;
}

}  // namespace bass::sched
