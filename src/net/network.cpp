#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "util/logging.h"

namespace bass::net {

namespace {

// Drain time in whole microseconds for `bytes` at `rate_bps`, rounded up.
sim::Duration drain_micros(double bytes, double rate_bps) {
  if (rate_bps <= 0.0) return -1;  // stalled
  const double us = bytes * 8.0 * 1e6 / rate_bps;
  return static_cast<sim::Duration>(std::ceil(us));
}

// Bytes moved in `dt` microseconds at `rate_bps`.
double bytes_in(sim::Duration dt, double rate_bps) {
  return rate_bps * static_cast<double>(dt) / 8e6;
}

}  // namespace

Network::Network(sim::Simulation& sim, Topology topology, NetworkConfig config)
    : sim_(&sim),
      topology_(std::move(topology)),
      routing_(topology_, config.routing),
      config_(config),
      link_entities_(static_cast<std::size_t>(topology_.link_count())),
      link_visit_(static_cast<std::size_t>(topology_.link_count()), 0),
      capacities_(static_cast<std::size_t>(topology_.link_count()), 0.0),
      link_allocated_(static_cast<std::size_t>(topology_.link_count()), 0.0),
      nominal_capacity_(static_cast<std::size_t>(topology_.link_count()), 0),
      link_down_(static_cast<std::size_t>(topology_.link_count()), 0) {
  for (int l = 0; l < topology_.link_count(); ++l) {
    capacities_[static_cast<std::size_t>(l)] =
        static_cast<double>(topology_.link(l).capacity);
    nominal_capacity_[static_cast<std::size_t>(l)] = topology_.link(l).capacity;
  }
}

Network::BatchUpdate::BatchUpdate(Network& net) : net_(net) { ++net_.batch_depth_; }

Network::BatchUpdate::~BatchUpdate() {
  if (--net_.batch_depth_ == 0 && net_.batch_dirty_) {
    net_.batch_dirty_ = false;
    net_.reallocate();
  }
}

void Network::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_reallocations_ = nullptr;
    m_full_reallocations_ = nullptr;
    m_flows_touched_ = nullptr;
    m_links_touched_ = nullptr;
    m_alloc_pass_us_ = nullptr;
    routing_.set_instruments(nullptr, nullptr, nullptr);
    return;
  }
  auto& metrics = recorder->metrics();
  m_reallocations_ = &metrics.counter("net.reallocations");
  m_full_reallocations_ = &metrics.counter("net.full_reallocations");
  m_flows_touched_ = &metrics.counter("net.flows_touched");
  m_links_touched_ = &metrics.counter("net.links_touched");
  m_alloc_pass_us_ = &metrics.log_timer_us("net.alloc_pass_us");
  routing_.set_instruments(&metrics.counter("net.routing.trees"),
                           &metrics.counter("net.routing.routes"),
                           &metrics.gauge("net.routing.pool_bytes"));
}

void Network::apply_capacity(LinkId link, Bps capacity) {
  if (topology_.link(link).capacity == capacity) return;
  if (recorder_ != nullptr) {
    obs::LinkCapacityChanged changed;
    changed.at = sim_->now();
    changed.link = link;
    changed.old_bps = topology_.link(link).capacity;
    changed.new_bps = std::max<Bps>(capacity, 0);
    // Attribute to whatever scope is driving the change (a fault action, a
    // trace tick has none); capacity changes are effects, never causes.
    changed.parent = recorder_->current_span();
    recorder_->record(changed);
  }
  // No settling here: flows whose rate the change can affect are settled at
  // their pre-change rates inside reallocate(), which runs at this same
  // instant (or at batch close, still within the same event).
  topology_.set_capacity(link, std::max<Bps>(capacity, 0));
  capacities_[static_cast<std::size_t>(link)] =
      static_cast<double>(topology_.link(link).capacity);
  dirty_links_.push_back(link);
  if (batch_depth_ > 0) {
    batch_dirty_ = true;
  } else {
    reallocate();
  }
}

void Network::set_link_capacity(LinkId link, Bps capacity) {
  nominal_capacity_[static_cast<std::size_t>(link)] = std::max<Bps>(capacity, 0);
  if (link_is_down(link)) return;  // remembered; applied on link_up
  apply_capacity(link, capacity);
}

void Network::set_link_capacity_between(NodeId a, NodeId b, Bps capacity) {
  BatchUpdate batch(*this);
  if (auto ab = topology_.link_between(a, b)) set_link_capacity(*ab, capacity);
  if (auto ba = topology_.link_between(b, a)) set_link_capacity(*ba, capacity);
}

void Network::set_link_down(LinkId link, bool down) {
  if (link_is_down(link) == down) return;
  link_down_[static_cast<std::size_t>(link)] = down ? 1 : 0;
  apply_capacity(link, down ? 0 : nominal_capacity_[static_cast<std::size_t>(link)]);
}

void Network::set_link_down_between(NodeId a, NodeId b, bool down) {
  BatchUpdate batch(*this);
  if (auto ab = topology_.link_between(a, b)) set_link_down(*ab, down);
  if (auto ba = topology_.link_between(b, a)) set_link_down(*ba, down);
}

Bps Network::link_allocated(LinkId link) const {
  return static_cast<Bps>(link_allocated_.at(static_cast<std::size_t>(link)));
}

Network::Channel& Network::channel_for(NodeId src, NodeId dst) {
  const std::int64_t key = channel_key(src, dst);
  auto [it, inserted] = channels_.try_emplace(key);
  if (inserted) {
    it->second.src = src;
    it->second.dst = dst;
    it->second.last_update = sim_->now();
  }
  return it->second;
}

void Network::grow_link_pos_stride(std::size_t stride) {
  std::vector<std::uint32_t> pool(entities_.size() * stride);
  for (std::size_t slot = 0; slot < entities_.size(); ++slot) {
    std::copy_n(link_pos_pool_.data() + slot * link_pos_stride_, link_pos_stride_,
                pool.data() + slot * stride);
  }
  link_pos_pool_ = std::move(pool);
  link_pos_stride_ = stride;
}

int Network::add_entity(double demand, std::span<const LinkId> path,
                        Channel* ch, Stream* st, std::int64_t key) {
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(entities_.size());
    entities_.emplace_back();
    entity_visit_.push_back(0);
    link_pos_pool_.resize(entities_.size() * link_pos_stride_);
  }
  Entity& e = entities_[static_cast<std::size_t>(slot)];
  e.demand = demand;
  e.path = path;
  e.channel = ch;
  e.stream = st;
  e.key = key;
  e.active = true;
  if (path.size() > link_pos_stride_) grow_link_pos_stride(path.size());
  std::uint32_t* pos = link_pos(slot);
  for (std::size_t i = 0; i < path.size(); ++i) {
    auto& occupants = link_entities_[static_cast<std::size_t>(path[i])];
    pos[i] = static_cast<std::uint32_t>(occupants.size());
    occupants.push_back({slot, static_cast<std::uint32_t>(i)});
  }
  ++active_entity_count_;
  if (ch != nullptr) ++active_channel_entities_;
  dirty_entities_.push_back(slot);
  return slot;
}

void Network::remove_entity(int slot) {
  Entity& e = entities_[static_cast<std::size_t>(slot)];
  assert(e.active);
  const std::uint32_t* my_pos = link_pos(slot);
  for (std::size_t i = 0; i < e.path.size(); ++i) {
    const LinkId l = e.path[i];
    auto& occupants = link_entities_[static_cast<std::size_t>(l)];
    const std::uint32_t pos = my_pos[i];
    occupants[pos] = occupants.back();
    const LinkRef moved = occupants[pos];
    link_pos(moved.slot)[moved.path_idx] = pos;
    occupants.pop_back();
    // The vacated capacity may redistribute to whatever shared this link.
    dirty_links_.push_back(l);
  }
  --active_entity_count_;
  if (e.channel != nullptr) --active_channel_entities_;
  e.active = false;
  e.channel = nullptr;
  e.stream = nullptr;
  e.path = {};
  free_slots_.push_back(slot);
}

TransferId Network::start_transfer(NodeId src, NodeId dst, std::int64_t bytes,
                                   TransferCallback done, Tag tag) {
  assert(bytes >= 0);
  const TransferId id = next_transfer_++;

  if (src == dst) {
    // Colocated components talk over loopback; no mesh involvement.
    const sim::Duration dt =
        config_.loopback_latency +
        std::max<sim::Duration>(drain_micros(static_cast<double>(bytes),
                                             static_cast<double>(config_.loopback_bps)),
                                0);
    account_bytes(tag, static_cast<double>(bytes));
    sim_->schedule_after(dt, [done = std::move(done)] {
      if (done) done();
    });
    return id;
  }

  assert(routing_.reachable(src, dst) && "transfer between partitioned nodes");
  Channel& ch = channel_for(src, dst);
  const bool was_idle = ch.fifo.empty();
  ch.fifo.push_back(Transfer{id, static_cast<double>(bytes), bytes, std::move(done), tag});
  transfer_channel_[id] = channel_key(src, dst);
  if (was_idle) {
    // Fresh contender: nothing to settle (it moved no bytes while idle),
    // but the stale idle-period rate must not leak into settlement.
    ch.rate_bps = 0.0;
    ch.last_update = sim_->now();
    ch.entity_slot =
        add_entity(static_cast<double>(kUnlimitedRate),
                   routing_.path(src, dst), &ch, nullptr, channel_key(src, dst));
    reallocate();  // a new contender changes its component's shares
  }
  // else: the channel was already backlogged; rates are unchanged.
  return id;
}

bool Network::cancel_transfer(TransferId id) {
  const auto it = transfer_channel_.find(id);
  if (it == transfer_channel_.end()) return false;
  const std::int64_t key = it->second;
  Channel& ch = channels_.at(key);
  auto pos = std::find_if(ch.fifo.begin(), ch.fifo.end(),
                          [id](const Transfer& t) { return t.id == id; });
  if (pos == ch.fifo.end()) return false;
  const bool was_head = (pos == ch.fifo.begin());
  if (was_head) settle_channel(ch);
  transfer_channel_.erase(it);
  ch.fifo.erase(pos);
  if (was_head) {
    if (ch.head_event != sim::kInvalidEvent) {
      sim_->cancel(ch.head_event);
      ch.head_event = sim::kInvalidEvent;
    }
    if (ch.fifo.empty()) {
      remove_entity(ch.entity_slot);
      ch.entity_slot = -1;
      reallocate();
    } else {
      schedule_head_event(key);
    }
  }
  return true;
}

Network::Stream* Network::find_stream(StreamId id) {
  const std::uint32_t slot = stream_slot_of(id);
  if (slot >= stream_slots_.size()) return nullptr;
  StreamSlot& s = stream_slots_[slot];
  if (!s.open || s.generation != static_cast<std::uint32_t>(id >> 32)) return nullptr;
  return &s.stream;
}

const Network::Stream* Network::find_stream(StreamId id) const {
  return const_cast<Network*>(this)->find_stream(id);
}

StreamId Network::open_stream(NodeId src, NodeId dst, Bps demand, Tag tag) {
  std::uint32_t slot;
  if (!stream_free_.empty()) {
    slot = stream_free_.back();
    stream_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(stream_slots_.size());
    stream_slots_.emplace_back();
  }
  StreamSlot& placed_slot = stream_slots_[slot];
  placed_slot.open = true;
  ++open_streams_;
  const StreamId id =
      (static_cast<StreamId>(placed_slot.generation) << 32) | slot;
  Stream& placed = placed_slot.stream;
  placed = Stream{};  // reset a reused slot (Stream owns no heap state)
  placed.src = src;
  placed.dst = dst;
  placed.demand = std::max<Bps>(demand, 0);
  placed.tag = tag;
  placed.last_update = sim_->now();
  if (src == dst) {
    // Loopback streams always run at full demand.
    placed.rate_bps = static_cast<double>(placed.demand);
    return id;
  }
  assert(routing_.reachable(src, dst) && "stream between partitioned nodes");
  if (placed.demand > 0) {
    placed.entity_slot =
        add_entity(static_cast<double>(placed.demand),
                   routing_.path(src, dst), nullptr, &placed, id);
    reallocate();
  }
  return id;
}

void Network::set_stream_demand(StreamId id, Bps demand) {
  Stream* stp = find_stream(id);
  if (stp == nullptr) return;  // stale handle: no-op by contract
  Stream& st = *stp;
  demand = std::max<Bps>(demand, 0);
  if (st.demand == demand) return;
  if (st.src == st.dst) {
    settle_stream(st);  // progress accounting at the old rate first
    st.demand = demand;
    st.rate_bps = static_cast<double>(demand);
    return;
  }
  st.demand = demand;
  if (st.entity_slot >= 0) {
    if (demand > 0) {
      Entity& e = entities_[static_cast<std::size_t>(st.entity_slot)];
      e.demand = static_cast<double>(demand);
      dirty_entities_.push_back(st.entity_slot);
    } else {
      settle_stream(st);  // leaving the mesh: close out the old rate
      remove_entity(st.entity_slot);
      st.entity_slot = -1;
      st.rate_bps = 0.0;
    }
    reallocate();
  } else if (demand > 0) {
    st.entity_slot = add_entity(static_cast<double>(demand),
                                routing_.path(st.src, st.dst), nullptr, &st, id);
    reallocate();
  }
}

void Network::close_stream(StreamId id) {
  Stream* stp = find_stream(id);
  if (stp == nullptr) return;  // stale or double close: safe no-op
  Stream& st = *stp;
  settle_stream(st);
  const bool meshed = st.entity_slot >= 0;
  if (meshed) {
    remove_entity(st.entity_slot);
    st.entity_slot = -1;
  }
  StreamSlot& s = stream_slots_[stream_slot_of(id)];
  s.open = false;
  ++s.generation;  // outstanding copies of `id` are stale from here on
  stream_free_.push_back(stream_slot_of(id));
  --open_streams_;
  if (meshed) reallocate();
}

Bps Network::stream_rate(StreamId id) const {
  const Stream* st = find_stream(id);
  if (st == nullptr) return 0;
  return static_cast<Bps>(st->rate_bps);
}

Bps Network::path_capacity(NodeId src, NodeId dst) const {
  if (src == dst) return config_.loopback_bps;
  if (!routing_.reachable(src, dst)) return 0;
  Bps bottleneck = kUnlimitedRate;
  for (LinkId l : routing_.path(src, dst)) {
    bottleneck = std::min(bottleneck, topology_.link(l).capacity);
  }
  return bottleneck;
}

Bps Network::path_available(NodeId src, NodeId dst) const {
  if (src == dst) return config_.loopback_bps;
  if (!routing_.reachable(src, dst)) return 0;

  // Price a phantom unbounded flow on the path against only its contention
  // component — flows sharing no link (transitively) with the path cannot
  // affect its share, and the cached entities already carry their paths.
  static const std::vector<int> kNoSeedEntities;
  const std::span<const LinkId> path = routing_.path(src, dst);
  collect_component(path, kNoSeedEntities);
  refs_.clear();
  refs_.reserve(comp_entities_.size() + 1);
  for (int slot : comp_entities_) {
    const Entity& e = entities_[static_cast<std::size_t>(slot)];
    refs_.push_back({e.demand, e.path});
  }
  refs_.push_back({static_cast<double>(kUnlimitedRate), path});
  if (config_.fairness == FairnessPolicy::kProportional) {
    return static_cast<Bps>(proportional_allocate_refs(capacities_, refs_).back());
  }
  return static_cast<Bps>(solver_.solve(capacities_, refs_).back());
}

void Network::account_bytes(Tag tag, double bytes) {
  total_bytes_delivered_ += static_cast<std::int64_t>(bytes);
  if (tag == 0) return;
  tag_bytes_window_[tag] += bytes;
  tag_bytes_total_[tag] += bytes;
}

std::int64_t Network::take_tag_bytes(Tag tag) {
  settle_all();
  auto it = tag_bytes_window_.find(tag);
  if (it == tag_bytes_window_.end()) return 0;
  const auto bytes = static_cast<std::int64_t>(it->second);
  it->second = 0.0;
  return bytes;
}

std::int64_t Network::total_tag_bytes(Tag tag) {
  settle_all();
  const auto it = tag_bytes_total_.find(tag);
  if (it == tag_bytes_total_.end()) return 0;
  return static_cast<std::int64_t>(it->second);
}

void Network::settle_channel(Channel& ch) {
  const sim::Time now = sim_->now();
  const sim::Duration dt = now - ch.last_update;
  ch.last_update = now;
  if (dt <= 0 || ch.fifo.empty() || ch.rate_bps <= 0.0) return;
  double moved = bytes_in(dt, ch.rate_bps);
  Transfer& head = ch.fifo.front();
  // Rounding of the completion event can make `moved` overshoot slightly.
  moved = std::min(moved, head.bytes_remaining);
  head.bytes_remaining -= moved;
  account_bytes(head.tag, moved);
}

void Network::settle_stream(Stream& st) {
  const sim::Time now = sim_->now();
  const sim::Duration dt = now - st.last_update;
  st.last_update = now;
  if (dt <= 0 || st.rate_bps <= 0.0) return;
  const double moved = bytes_in(dt, st.rate_bps) + st.byte_carry;
  st.byte_carry = 0.0;
  account_bytes(st.tag, moved);
}

void Network::settle_all() {
  for (const Entity& e : entities_) {
    if (e.active && e.channel != nullptr) settle_channel(*e.channel);
  }
  for (StreamSlot& s : stream_slots_) {
    if (s.open) settle_stream(s.stream);
  }
}

void Network::collect_component(std::span<const LinkId> seed_links,
                                const std::vector<int>& seed_entities) const {
  ++visit_stamp_;
  if (visit_stamp_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(link_visit_.begin(), link_visit_.end(), 0u);
    std::fill(entity_visit_.begin(), entity_visit_.end(), 0u);
    visit_stamp_ = 1;
  }
  entity_visit_.resize(entities_.size(), 0);
  comp_entities_.clear();
  comp_links_.clear();

  auto visit_link = [this](LinkId l) {
    const auto li = static_cast<std::size_t>(l);
    if (link_visit_[li] == visit_stamp_) return;
    link_visit_[li] = visit_stamp_;
    comp_links_.push_back(l);
  };
  auto visit_entity = [this](int slot) {
    const auto si = static_cast<std::size_t>(slot);
    if (entity_visit_[si] == visit_stamp_) return;
    entity_visit_[si] = visit_stamp_;
    // Dirty seeds may name freed slots (e.g. opened and closed within one
    // batch); the links such an entity crossed are dirtied at removal.
    if (entities_[si].active) comp_entities_.push_back(slot);
  };

  for (LinkId l : seed_links) visit_link(l);
  for (int slot : seed_entities) {
    visit_entity(slot);
    if (entities_[static_cast<std::size_t>(slot)].active) {
      for (LinkId l : entities_[static_cast<std::size_t>(slot)].path) visit_link(l);
    }
  }
  // comp_links_ doubles as the BFS frontier: every link appended past
  // `head` still needs its occupants expanded.
  for (std::size_t head = 0; head < comp_links_.size(); ++head) {
    const auto li = static_cast<std::size_t>(comp_links_[head]);
    for (const LinkRef& ref : link_entities_[li]) {
      const auto si = static_cast<std::size_t>(ref.slot);
      if (entity_visit_[si] == visit_stamp_) continue;
      entity_visit_[si] = visit_stamp_;
      comp_entities_.push_back(ref.slot);
      for (LinkId l : entities_[si].path) visit_link(l);
    }
  }
}

void Network::reallocate() {
  if (batch_depth_ > 0) {
    batch_dirty_ = true;
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  ++alloc_stats_.reallocations;

  collect_component(dirty_links_, dirty_entities_);
  dirty_links_.clear();
  dirty_entities_.clear();

  // Links leaving/entering contention are re-derived from scratch below;
  // untouched links keep their standing allocations (their flows' rates
  // are provably unchanged).
  for (LinkId l : comp_links_) link_allocated_[static_cast<std::size_t>(l)] = 0.0;

  const auto touched = static_cast<std::int64_t>(comp_entities_.size());
  alloc_stats_.flows_touched += touched;
  alloc_stats_.links_touched += static_cast<std::int64_t>(comp_links_.size());
  alloc_stats_.last_flows_touched = touched;
  alloc_stats_.last_links_touched = static_cast<std::int64_t>(comp_links_.size());
  alloc_stats_.max_component_flows = std::max(alloc_stats_.max_component_flows, touched);
  if (touched == active_entity_count_ && touched > 0) ++alloc_stats_.full_reallocations;

  if (!comp_entities_.empty()) {
    // Settle at pre-change rates before repricing; flows outside the
    // component keep their rates, so their accounting stays linear and can
    // settle lazily.
    refs_.clear();
    refs_.reserve(comp_entities_.size());
    for (int slot : comp_entities_) {
      Entity& e = entities_[static_cast<std::size_t>(slot)];
      if (e.channel != nullptr) {
        settle_channel(*e.channel);
      } else {
        settle_stream(*e.stream);
      }
      refs_.push_back({e.demand, e.path});
    }

    const std::vector<double>* rates;
    std::vector<double> proportional;
    if (config_.fairness == FairnessPolicy::kProportional) {
      proportional = proportional_allocate_refs(capacities_, refs_);
      rates = &proportional;
    } else {
      rates = &solver_.solve(capacities_, refs_);
    }

    for (std::size_t i = 0; i < comp_entities_.size(); ++i) {
      Entity& e = entities_[static_cast<std::size_t>(comp_entities_[i])];
      const double rate = (*rates)[i];
      for (LinkId l : e.path) link_allocated_[static_cast<std::size_t>(l)] += rate;
      if (e.channel != nullptr) {
        e.channel->rate_bps = rate;
        schedule_head_event(e.key);
      } else {
        e.stream->rate_bps = rate;
      }
    }
  }

  const double pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  alloc_stats_.alloc_seconds += pass_seconds;

  if (recorder_ != nullptr) {
    m_reallocations_->inc();
    m_flows_touched_->add(touched);
    m_links_touched_->add(static_cast<std::int64_t>(comp_links_.size()));
    const bool full = touched == active_entity_count_ && touched > 0;
    if (full) m_full_reallocations_->inc();
    m_alloc_pass_us_->observe(pass_seconds * 1e6);
    obs::ReallocationSolved solved;
    solved.at = sim_->now();
    solved.flows = touched;
    solved.links = static_cast<std::int64_t>(comp_links_.size());
    solved.full = full;
    solved.span = recorder_->new_span();
    solved.parent = recorder_->current_span();
    recorder_->record(solved);
  }
}

void Network::schedule_head_event(std::int64_t key) {
  Channel& ch = channels_.at(key);
  if (ch.head_event != sim::kInvalidEvent) {
    sim_->cancel(ch.head_event);
    ch.head_event = sim::kInvalidEvent;
  }
  if (ch.fifo.empty()) return;
  const sim::Duration drain = drain_micros(ch.fifo.front().bytes_remaining, ch.rate_bps);
  if (drain < 0) return;  // stalled: wait for a rate change
  ch.head_event = sim_->schedule_after(drain, [this, key] { complete_head(key); });
}

void Network::complete_head(std::int64_t key) {
  Channel& ch = channels_.at(key);
  ch.head_event = sim::kInvalidEvent;
  settle_channel(ch);
  assert(!ch.fifo.empty());
  Transfer head = std::move(ch.fifo.front());
  ch.fifo.pop_front();
  transfer_channel_.erase(head.id);
  // Account any residue lost to event rounding.
  if (head.bytes_remaining > 0.0) account_bytes(head.tag, head.bytes_remaining);

  if (ch.fifo.empty()) {
    remove_entity(ch.entity_slot);
    ch.entity_slot = -1;
    reallocate();
  } else {
    schedule_head_event(key);
  }

  // Delivery completes after propagation over the path's hops.
  const sim::Duration hop_delay =
      config_.per_hop_latency * routing_.hops(ch.src, ch.dst);
  if (head.done) {
    sim_->schedule_after(hop_delay, [done = std::move(head.done)] { done(); });
  }
}

}  // namespace bass::net
