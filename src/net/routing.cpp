#include "net/routing.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace bass::net {

namespace {

// Links per pool chunk after the one-link chunk (16 KiB).
constexpr std::size_t kChunkLinks = 4096;

}  // namespace

RoutingTable::RoutingTable(const Topology& topo, RoutingPolicy policy)
    : topo_(&topo),
      policy_(policy),
      trees_(static_cast<std::size_t>(topo.node_count())) {
  const auto m = static_cast<std::size_t>(topo.link_count());
  if (policy_ == RoutingPolicy::kWidestPath) {
    capacity_.resize(m);
    for (std::size_t l = 0; l < m; ++l) {
      capacity_[l] = topo.link(static_cast<LinkId>(l)).capacity;
    }
  }
  chunks_.push_back(std::make_unique<LinkId[]>(m));
  for (std::size_t l = 0; l < m; ++l) chunks_[0][l] = static_cast<LinkId>(l);
  chunk_used_ = chunk_size_ = m;
  pool_bytes_ = m * sizeof(LinkId);
}

void RoutingTable::set_instruments(obs::Counter* trees, obs::Counter* routes,
                                   obs::Gauge* pool_bytes) {
  m_trees_ = trees;
  m_routes_ = routes;
  m_pool_bytes_ = pool_bytes;
  if (m_trees_ != nullptr) m_trees_->add(trees_built_);
  if (m_routes_ != nullptr) m_routes_->add(routes_interned_);
  if (m_pool_bytes_ != nullptr) m_pool_bytes_->set(static_cast<double>(pool_bytes_));
}

void RoutingTable::check_nodes(NodeId src, NodeId dst) const {
  const auto n = static_cast<NodeId>(trees_.size());
  if (src < 0 || src >= n || dst < 0 || dst >= n) {
    throw std::out_of_range("RoutingTable: node id out of range");
  }
}

RoutingTable::TreeNode* RoutingTable::tree(NodeId src) const {
  auto& slot = trees_[static_cast<std::size_t>(src)];
  if (slot == nullptr) {
    slot = std::make_unique<TreeNode[]>(static_cast<std::size_t>(topo_->node_count()));
    if (policy_ == RoutingPolicy::kWidestPath) {
      build_widest(src, slot.get());
    } else {
      build_min_hop(src, slot.get());
    }
    ++trees_built_;
    if (m_trees_ != nullptr) m_trees_->inc();
  }
  return slot.get();
}

void RoutingTable::build_min_hop(NodeId src, TreeNode* tree) const {
  // BFS. Neighbors are explored in out-link insertion order, which fixes
  // the tie-break deterministically. A node is seen once it has an in-link
  // (the source never gets one).
  queue_.resize(static_cast<std::size_t>(topo_->node_count()));
  std::size_t head = 0, tail = 0;
  queue_[tail++] = src;
  while (head < tail) {
    const NodeId u = queue_[head++];
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      if (v == src || tree[v].in_link != kInvalidLink) continue;
      tree[v].in_link = l;
      tree[v].hops = tree[u].hops + 1;
      queue_[tail++] = v;
    }
  }
}

void RoutingTable::build_widest(NodeId src, TreeNode* tree) const {
  // Widest-path Dijkstra: maximize the bottleneck capacity, break ties by
  // hop count, then by lower node id. The heap pops exactly that order;
  // superseded entries are skipped once their node is done (an update only
  // ever improves a node's key, so its live entry always pops first).
  const auto n = static_cast<std::size_t>(topo_->node_count());
  width_.assign(n, -1);
  done_.assign(n, 0);
  heap_.clear();
  // std heap functions build a max-heap: "less" means "popped later".
  const auto later = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.width != b.width) return a.width < b.width;
    if (a.hops != b.hops) return a.hops > b.hops;
    return a.node > b.node;
  };
  width_[static_cast<std::size_t>(src)] = kUnlimitedRate;
  heap_.push_back({kUnlimitedRate, 0, src});
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const NodeId u = heap_.back().node;
    heap_.pop_back();
    if (done_[static_cast<std::size_t>(u)] != 0) continue;
    done_[static_cast<std::size_t>(u)] = 1;
    const Bps width_u = width_[static_cast<std::size_t>(u)];
    for (LinkId l : topo_->out_links(u)) {
      const NodeId v = topo_->link(l).dst;
      const auto vi = static_cast<std::size_t>(v);
      if (done_[vi] != 0) continue;
      const Bps through = std::min(width_u, capacity_[static_cast<std::size_t>(l)]);
      const std::uint32_t h = tree[u].hops + 1;
      if (through > width_[vi] || (through == width_[vi] && h < tree[v].hops)) {
        width_[vi] = through;
        tree[v].hops = h;
        tree[v].in_link = l;
        heap_.push_back({through, h, v});
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
}

const LinkId* RoutingTable::intern(const TreeNode* tree, NodeId dst) const {
  const TreeNode& node = tree[dst];
  if (node.hops == 1) return &chunks_[0][static_cast<std::size_t>(node.in_link)];
  const std::size_t len = node.hops;
  if (chunk_size_ - chunk_used_ < len) {
    chunk_size_ = std::max(kChunkLinks, len);
    chunks_.push_back(std::make_unique<LinkId[]>(chunk_size_));
    chunk_used_ = 0;
    pool_bytes_ += chunk_size_ * sizeof(LinkId);
    if (m_pool_bytes_ != nullptr) m_pool_bytes_->set(static_cast<double>(pool_bytes_));
  }
  LinkId* route = chunks_.back().get() + chunk_used_;
  chunk_used_ += len;
  // Walk the tree back from dst; the parent is each in-link's source.
  NodeId v = dst;
  for (std::size_t i = len; i-- > 0;) {
    const LinkId l = tree[v].in_link;
    route[i] = l;
    v = topo_->link(l).src;
  }
  ++routes_interned_;
  if (m_routes_ != nullptr) m_routes_->inc();
  return route;
}

const LinkId* RoutingTable::shortcut(NodeId src, NodeId dst) const {
  if (policy_ != RoutingPolicy::kMinHop ||
      trees_[static_cast<std::size_t>(src)] != nullptr) {
    return nullptr;
  }
  for (LinkId l : topo_->out_links(src)) {
    if (topo_->link(l).dst == dst) return &chunks_[0][static_cast<std::size_t>(l)];
  }
  return nullptr;
}

std::span<const LinkId> RoutingTable::path(NodeId src, NodeId dst) const {
  check_nodes(src, dst);
  if (src == dst) return {};
  if (const LinkId* route = shortcut(src, dst)) return {route, 1};
  TreeNode* const t = tree(src);
  TreeNode& node = t[dst];
  if (node.in_link == kInvalidLink) return {};  // unreachable
  if (node.route == nullptr) node.route = intern(t, dst);
  return {node.route, node.hops};
}

int RoutingTable::hops(NodeId src, NodeId dst) const {
  check_nodes(src, dst);
  if (src == dst) return 0;
  if (shortcut(src, dst) != nullptr) return 1;
  return static_cast<int>(tree(src)[dst].hops);
}

bool RoutingTable::reachable(NodeId src, NodeId dst) const {
  check_nodes(src, dst);
  if (src == dst) return true;
  if (shortcut(src, dst) != nullptr) return true;
  return tree(src)[dst].in_link != kInvalidLink;
}

}  // namespace bass::net
