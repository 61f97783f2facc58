// Passive per-component-pair traffic accounting — the paper's "TX/RX bytes
// between application components" metric (gathered there by an Istio
// sidecar + Prometheus; here the workload engines report delivered bytes as
// transfers and stream samples complete).
//
// One counter slot per app edge, in a flat vector built from the AppGraph
// at deploy. Callers that walk the app's edges pass the edge index; the
// (from, to) overloads resolve the pair to its first edge in O(edges).
// Engines record only app edges (the only traffic the controller reads),
// so a pair that is no edge has no slot: recording it is a no-op and it
// reads as zero.
#pragma once

#include <cstdint>
#include <vector>

#include "app/app_graph.h"
#include "net/types.h"
#include "sim/time.h"

namespace bass::monitor {

class TrafficStats {
 public:
  TrafficStats() = default;  // no edges
  explicit TrafficStats(const app::AppGraph& app);

  // Index of the first (from, to) edge, or -1 when the pair is no edge.
  int edge_index(app::ComponentId from, app::ComponentId to) const;

  // Adds `bytes` *delivered* over an edge (either direction of an app edge
  // is recorded under that edge).
  void record(int edge, std::int64_t bytes);
  void record(app::ComponentId from, app::ComponentId to, std::int64_t bytes);

  // Adds `bytes` *offered* (handed to the network, whether or not it has
  // arrived yet). delivered/offered is the pair's goodput: ~1 when the
  // network keeps up, << 1 when the link starves the pair (§3.2.2's second
  // migration trigger).
  void record_offered(int edge, std::int64_t bytes);
  void record_offered(app::ComponentId from, app::ComponentId to, std::int64_t bytes);

  // Total delivered bytes since construction.
  std::int64_t total_bytes(int edge) const {
    return slots_[static_cast<std::size_t>(edge)].total_bytes;
  }
  std::int64_t total_bytes(app::ComponentId from, app::ComponentId to) const;

  struct WindowRates {
    net::Bps delivered = 0;
    net::Bps offered = 0;
  };
  // Average rates over the window since the edge's last take; resets it.
  WindowRates take_window(int edge, sim::Time now);
  WindowRates take_window(app::ComponentId from, app::ComponentId to, sim::Time now);

 private:
  struct Slot {
    app::ComponentId from = app::kInvalidComponent;
    app::ComponentId to = app::kInvalidComponent;
    std::int64_t window_bytes = 0;
    std::int64_t window_offered = 0;
    std::int64_t total_bytes = 0;
    sim::Time window_start = 0;
  };
  std::vector<Slot> slots_;  // by edge index
};

}  // namespace bass::monitor
