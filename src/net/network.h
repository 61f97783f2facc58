// Flow-level network simulator. Two traffic primitives:
//
//  * Transfer — a finite byte payload between two nodes (an RPC message, a
//    video frame). Transfers between the same node pair share a FIFO
//    "channel" served at the channel's max-min fair rate, which gives
//    natural queueing behaviour when links saturate.
//  * Stream — a constant-demand flow (a video feed, a probe). Its delivered
//    rate is its max-min allocation; shortfall against demand models loss.
//
// Rates are recomputed only when the set of contending flows or a link
// capacity changes — completions inside a busy channel don't perturb the
// allocation, which keeps event counts tractable for long workloads.
//
// Allocation fast path: the Network maintains a persistent cache of
// allocation entities (one per active channel / demanding mesh stream) with
// per-link occupancy lists. A change dirties the links/flows it touches and
// reallocation reprices only the contention component reachable from the
// dirty set — flows that share no link (transitively) with the change keep
// their rates, which is exact because max-min allocations of disjoint
// components are independent. See DESIGN.md "Flow allocation fast path".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/maxmin.h"
#include "net/routing.h"
#include "net/topology.h"
#include "net/types.h"
#include "obs/recorder.h"
#include "sim/simulation.h"

namespace bass::net {

using TransferId = std::int64_t;
using StreamId = std::int64_t;
using Tag = std::uint64_t;  // caller-defined traffic class for byte counters

enum class FairnessPolicy {
  kMaxMin,        // TCP-like convergence (default; what the paper's testbed ran)
  kProportional,  // ablation: demands scaled by worst path oversubscription
};

struct NetworkConfig {
  // One-way propagation/processing latency added per traversed link.
  sim::Duration per_hop_latency = sim::millis(1);
  // Colocated (same-node) transfers bypass the mesh entirely.
  Bps loopback_bps = gbps(10);
  sim::Duration loopback_latency = sim::micros(100);
  FairnessPolicy fairness = FairnessPolicy::kMaxMin;
  // The mesh's routing protocol behaviour (see net/routing.h).
  RoutingPolicy routing = RoutingPolicy::kMinHop;
};

// Allocator observability (cumulative unless noted). `reallocations` counts
// allocator passes; `flows_touched` counts entity repricings summed over
// passes, so flows_touched / reallocations is the mean contention-component
// size the engine actually paid for.
struct AllocStats {
  std::int64_t reallocations = 0;
  // Passes whose component covered every active entity.
  std::int64_t full_reallocations = 0;
  std::int64_t flows_touched = 0;
  std::int64_t links_touched = 0;
  std::int64_t last_flows_touched = 0;   // most recent pass only
  std::int64_t last_links_touched = 0;   // most recent pass only
  std::int64_t max_component_flows = 0;  // largest component ever repriced
  double alloc_seconds = 0.0;            // wall time inside collect+solve+apply
};

class Network {
 public:
  Network(sim::Simulation& sim, Topology topology, NetworkConfig config = {});
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topology_; }
  const RoutingTable& routing() const { return routing_; }
  sim::Simulation& simulation() { return *sim_; }
  const NetworkConfig& config() const { return config_; }

  // One-way propagation latency along the routed path (0 when colocated).
  sim::Duration path_latency(NodeId src, NodeId dst) const {
    return config_.per_hop_latency * routing_.hops(src, dst);
  }

  // ---- Capacity control (driven by the trace player / experiments) ----
  // While a link is forced down (fault injection) the new capacity is only
  // remembered as the nominal value, so trace playback layered on top keeps
  // updating and the latest trace value takes effect on link_up.
  void set_link_capacity(LinkId link, Bps capacity);
  // Convenience: sets both directions of the (a,b) link.
  void set_link_capacity_between(NodeId a, NodeId b, Bps capacity);
  Bps link_capacity(LinkId link) const { return topology_.link(link).capacity; }

  // ---- Fault overlay ----
  // Forces a link's effective capacity to zero (down) or restores the
  // nominal capacity (up). Orthogonal to set_link_capacity: the overlay
  // shadows capacity writes instead of discarding them.
  void set_link_down(LinkId link, bool down);
  // Both directions of the (a,b) link.
  void set_link_down_between(NodeId a, NodeId b, bool down);
  bool link_is_down(LinkId link) const {
    return link_down_[static_cast<std::size_t>(link)] != 0;
  }
  // Current sum of flow rates crossing the link (refreshed on reallocation).
  Bps link_allocated(LinkId link) const;

  // Batch capacity updates: settling and reallocation are deferred until
  // the guard dies, so a trace tick that touches L links settles and
  // reprices once, not L times.
  class BatchUpdate {
   public:
    explicit BatchUpdate(Network& net);
    ~BatchUpdate();
    BatchUpdate(const BatchUpdate&) = delete;
    BatchUpdate& operator=(const BatchUpdate&) = delete;

   private:
    Network& net_;
  };

  // ---- Transfers ----
  using TransferCallback = std::function<void()>;
  // Moves `bytes` from src to dst; `done` fires when the last byte lands
  // (drain time + per-hop latency). Returns an id usable with cancel().
  TransferId start_transfer(NodeId src, NodeId dst, std::int64_t bytes,
                            TransferCallback done, Tag tag = 0);
  // Cancels a queued/in-flight transfer. False if it already completed.
  bool cancel_transfer(TransferId id);

  // ---- Streams ----
  // StreamIds are generation-tagged slot handles ((generation << 32) |
  // slot): closed ids go stale instead of dangling, so a stale id reads
  // rate 0, set_stream_demand is a no-op, and double-close is safe. Slots
  // are free-listed, so steady-state stream churn reuses storage instead of
  // allocating.
  StreamId open_stream(NodeId src, NodeId dst, Bps demand, Tag tag = 0);
  void set_stream_demand(StreamId id, Bps demand);
  void close_stream(StreamId id);
  // Current allocated rate; 0 for unknown/closed streams.
  Bps stream_rate(StreamId id) const;

  // ---- Observability ----
  // Attaches the run's recorder: every allocator pass journals a
  // ReallocationSolved event, capacity changes journal LinkCapacityChanged,
  // and the AllocStats counters are mirrored into the metrics registry
  // (net.reallocations, net.flows_touched, ..., net.alloc_pass_us), as is
  // the routing table's lazily built state (net.routing.trees,
  // net.routing.routes, net.routing.pool_bytes).
  // Instrument handles are resolved once here, so the hot path only pays
  // pointer increments. Pass nullptr to detach.
  void set_recorder(obs::Recorder* recorder);

  // Bottleneck *raw* capacity along the routed path (ignores contention).
  Bps path_capacity(NodeId src, NodeId dst) const;
  // Rate a hypothetical new unbounded flow would receive on the path right
  // now — the ground truth a flood probe estimates. Solves only the
  // phantom flow's contention component against the entity cache.
  Bps path_available(NodeId src, NodeId dst) const;

  // Delivered bytes for a tag since the last take (settles flows first).
  std::int64_t take_tag_bytes(Tag tag);
  // Delivered bytes for a tag since the start of the simulation.
  std::int64_t total_tag_bytes(Tag tag);

  std::int64_t total_bytes_delivered() const { return total_bytes_delivered_; }
  std::int64_t reallocation_count() const { return alloc_stats_.reallocations; }
  const AllocStats& alloc_stats() const { return alloc_stats_; }
  std::size_t active_channel_count() const {
    return static_cast<std::size_t>(active_channel_entities_);
  }
  std::size_t stream_count() const { return open_streams_; }

 private:
  struct Transfer {
    TransferId id = 0;
    double bytes_remaining = 0.0;
    std::int64_t bytes_total = 0;
    TransferCallback done;
    Tag tag = 0;
  };

  struct Channel {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::deque<Transfer> fifo;
    double rate_bps = 0.0;
    sim::Time last_update = 0;
    sim::EventId head_event = sim::kInvalidEvent;
    int entity_slot = -1;  // slot in entities_ while backlogged, else -1
  };

  struct Stream {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Bps demand = 0;
    double rate_bps = 0.0;
    sim::Time last_update = 0;
    Tag tag = 0;
    double byte_carry = 0.0;  // fractional bytes pending accounting
    int entity_slot = -1;  // slot in entities_ while a demanding mesh flow
  };

  // One allocation entity: an active (backlogged) channel or a demanding
  // mesh stream. Slots are stable (free-listed), so per-link occupancy
  // lists and dirty sets can hold slot indices across churn.
  struct Entity {
    double demand = 0.0;
    std::span<const LinkId> path;  // interned in routing_'s link pool
    Channel* channel = nullptr;  // exactly one of channel/stream is set
    Stream* stream = nullptr;
    std::int64_t key = 0;  // channel key (head-event scheduling)
    bool active = false;
  };
  struct LinkRef {
    int slot = 0;
    std::uint32_t path_idx = 0;  // index of this link within the slot's path
  };

  std::int64_t channel_key(NodeId src, NodeId dst) const {
    return (static_cast<std::int64_t>(src) << 32) | static_cast<std::uint32_t>(dst);
  }

  Channel& channel_for(NodeId src, NodeId dst);
  // Advances a flow's byte accounting to `now` at its current rate.
  void settle_channel(Channel& ch);
  void settle_stream(Stream& st);
  void settle_all();

  // Entity cache maintenance. Adding marks the entity dirty; removing
  // marks its links dirty, so the next reallocate() reprices exactly the
  // affected contention component.
  int add_entity(double demand, std::span<const LinkId> path, Channel* ch,
                 Stream* st, std::int64_t key);
  void remove_entity(int slot);

  // Flood-fills links ↔ entities from the dirty seeds into comp_links_ /
  // comp_entities_ (every flow on an included link is included, so the
  // result is closed under link sharing).
  void collect_component(std::span<const LinkId> seed_links,
                         const std::vector<int>& seed_entities) const;
  // Settles and reprices the dirty contention component(s), then
  // reschedules head events for repriced channels.
  void reallocate();
  void schedule_head_event(std::int64_t key);
  void complete_head(std::int64_t key);
  void account_bytes(Tag tag, double bytes);

  sim::Simulation* sim_;
  Topology topology_;
  RoutingTable routing_;
  NetworkConfig config_;

  // Stream storage. A deque gives pointer stability (Entity::stream points
  // into a slot) without per-stream allocations; closed slots are
  // free-listed and their generation bumped, so stale StreamIds miss in
  // O(1). A slot's generation wraps after 2^32 closes — accepted: an id
  // would have to be held across four billion reuses of its slot to alias.
  struct StreamSlot {
    Stream stream;
    std::uint32_t generation = 1;
    bool open = false;
  };
  static std::uint32_t stream_slot_of(StreamId id) {
    return static_cast<std::uint32_t>(id);
  }
  Stream* find_stream(StreamId id);
  const Stream* find_stream(StreamId id) const;

  std::unordered_map<std::int64_t, Channel> channels_;  // keyed by (src,dst)
  std::deque<StreamSlot> stream_slots_;
  std::vector<std::uint32_t> stream_free_;
  std::size_t open_streams_ = 0;
  std::unordered_map<TransferId, std::int64_t> transfer_channel_;  // id -> key

  // ---- Entity cache ----
  std::vector<Entity> entities_;
  std::vector<int> free_slots_;
  std::vector<std::vector<LinkRef>> link_entities_;  // per-link active slots
  // link_pos(slot)[i] is the slot's index within link_entities_[path[i]],
  // making detach an O(path) swap-remove instead of a list scan. Stored as
  // one flat pool strided by the longest path any entity has used, so
  // entity-slot reuse never resizes anything. Routes are materialized
  // lazily, so the stride is not known up front: it grows (re-striding the
  // pool once) when an entity arrives with a longer path than any before.
  std::vector<std::uint32_t> link_pos_pool_;
  std::size_t link_pos_stride_ = 1;
  void grow_link_pos_stride(std::size_t stride);
  std::uint32_t* link_pos(int slot) {
    return link_pos_pool_.data() +
           static_cast<std::size_t>(slot) * link_pos_stride_;
  }
  int active_entity_count_ = 0;
  int active_channel_entities_ = 0;

  // Dirty seeds accumulated since the last allocator pass (deduplicated by
  // the component walk, so plain vectors suffice).
  std::vector<LinkId> dirty_links_;
  std::vector<int> dirty_entities_;

  // Component-walk + solver scratch. Mutable because path_available() is
  // logically const but reuses the same buffers.
  mutable MaxMinSolver solver_;
  mutable std::vector<AllocEntityRef> refs_;
  mutable std::vector<int> comp_entities_;
  mutable std::vector<LinkId> comp_links_;
  mutable std::vector<std::uint32_t> link_visit_;
  mutable std::vector<std::uint32_t> entity_visit_;
  mutable std::uint32_t visit_stamp_ = 0;

  // Applies an effective-capacity change (journal + topology + mirror +
  // dirty seed + reallocate); set_link_capacity/set_link_down route here.
  void apply_capacity(LinkId link, Bps capacity);

  std::vector<double> capacities_;  // mirror of topology capacities
  std::vector<double> link_allocated_;
  std::vector<Bps> nominal_capacity_;     // capacity a downed link returns to
  std::vector<std::uint8_t> link_down_;   // fault overlay flags
  std::unordered_map<Tag, double> tag_bytes_window_;
  std::unordered_map<Tag, double> tag_bytes_total_;

  // Observability (all null until set_recorder; see emit sites).
  obs::Recorder* recorder_ = nullptr;
  obs::Counter* m_reallocations_ = nullptr;
  obs::Counter* m_full_reallocations_ = nullptr;
  obs::Counter* m_flows_touched_ = nullptr;
  obs::Counter* m_links_touched_ = nullptr;
  obs::LogHistogram* m_alloc_pass_us_ = nullptr;
  obs::Counter* m_routing_trees_ = nullptr;
  obs::Counter* m_routing_routes_ = nullptr;
  obs::Gauge* m_routing_pool_bytes_ = nullptr;

  TransferId next_transfer_ = 1;
  std::int64_t total_bytes_delivered_ = 0;
  AllocStats alloc_stats_;
  int batch_depth_ = 0;
  bool batch_dirty_ = false;
};

}  // namespace bass::net
