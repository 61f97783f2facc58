#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace bass::net {
namespace {

struct Fixture {
  sim::Simulation sim;
  std::unique_ptr<Network> net;

  // Line: 0 -(10 Mbps)- 1 -(10 Mbps)- 2
  explicit Fixture(Bps cap = mbps(10)) {
    Topology t;
    const NodeId a = t.add_node(), b = t.add_node(), c = t.add_node();
    t.add_link(a, b, cap);
    t.add_link(b, c, cap);
    net = std::make_unique<Network>(sim, std::move(t));
  }
};

TEST(Network, SingleTransferDrainTime) {
  Fixture f;
  sim::Time done_at = -1;
  // 10 Mbit over a 10 Mbps 1-hop path: 1 s drain + 1 ms hop latency.
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 1.001, 0.001);
}

TEST(Network, MultiHopAddsLatencyOnly) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 2, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  // Flow-level model: one drain at the bottleneck rate plus 2 hops latency.
  EXPECT_NEAR(sim::to_seconds(done_at), 1.002, 0.001);
}

TEST(Network, TwoChannelsShareALink) {
  Fixture f;
  sim::Time done0 = -1, done1 = -1;
  // Both cross link 0->1. Each should get ~5 Mbps: 10 Mbit takes ~2 s.
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done0 = f.sim.now(); });
  f.net->start_transfer(0, 2, 10'000'000 / 8, [&] { done1 = f.sim.now(); });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done0), 2.0, 0.02);
  // After the first finishes, the second speeds up to 10 Mbps — but both
  // had the same size so they finish nearly together.
  EXPECT_NEAR(sim::to_seconds(done1), 2.0, 0.02);
}

TEST(Network, FifoWithinChannel) {
  Fixture f;
  std::vector<int> completed;
  f.net->start_transfer(0, 1, 1'000'000, [&] { completed.push_back(1); });
  f.net->start_transfer(0, 1, 1'000, [&] { completed.push_back(2); });
  f.sim.run_all();
  // Same channel is FIFO: the big head transfer completes first.
  EXPECT_EQ(completed, (std::vector<int>{1, 2}));
}

TEST(Network, CapacityChangeSlowsTransfer) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  // At t=0.5 s, halve the link: remaining 5 Mbit at 5 Mbps -> 1 more second.
  f.sim.schedule_at(sim::seconds_f(0.5), [&] {
    f.net->set_link_capacity_between(0, 1, mbps(5));
  });
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 1.501, 0.01);
}

TEST(Network, ZeroCapacityStallsThenResumes) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  f.sim.schedule_at(sim::seconds_f(0.5), [&] {
    f.net->set_link_capacity_between(0, 1, 0);
  });
  f.sim.schedule_at(sim::seconds_f(10.5), [&] {
    f.net->set_link_capacity_between(0, 1, mbps(10));
  });
  f.sim.run_all();
  // 0.5 s at 10 Mbps, 10 s stalled, then 0.5 s to finish.
  EXPECT_NEAR(sim::to_seconds(done_at), 11.0, 0.02);
}

TEST(Network, LoopbackTransferIsFast) {
  Fixture f;
  sim::Time done_at = -1;
  f.net->start_transfer(1, 1, 1'000'000, [&] { done_at = f.sim.now(); });
  f.sim.run_all();
  EXPECT_LT(done_at, sim::millis(2));
  EXPECT_GE(done_at, 0);
}

TEST(Network, CancelQueuedTransfer) {
  Fixture f;
  bool head_done = false, second_done = false;
  f.net->start_transfer(0, 1, 1'000'000, [&] { head_done = true; });
  const TransferId second =
      f.net->start_transfer(0, 1, 1'000'000, [&] { second_done = true; });
  EXPECT_TRUE(f.net->cancel_transfer(second));
  EXPECT_FALSE(f.net->cancel_transfer(second));
  f.sim.run_all();
  EXPECT_TRUE(head_done);
  EXPECT_FALSE(second_done);
}

TEST(Network, CancelHeadPromotesNext) {
  Fixture f;
  bool second_done = false;
  const TransferId head = f.net->start_transfer(0, 1, 100'000'000, [] {});
  f.net->start_transfer(0, 1, 1'000'000 / 8, [&] { second_done = true; });
  f.sim.schedule_at(sim::seconds(1), [&] { f.net->cancel_transfer(head); });
  f.sim.run_all();
  EXPECT_TRUE(second_done);
  // 1 Mbit at 10 Mbps from t=1: finishes ~t=1.1, far before the 80 s the
  // cancelled head would have taken.
  EXPECT_LT(f.sim.now(), sim::seconds(3));
}

TEST(Network, StreamGetsDemandWhenUncontended) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(3));
  f.sim.run_until(sim::seconds(1));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 3e6, 1e3);
  f.net->close_stream(s);
  EXPECT_EQ(f.net->stream_rate(s), 0);
}

TEST(Network, StreamSharesWithTransfers) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(8));
  sim::Time done_at = -1;
  f.net->start_transfer(0, 1, 10'000'000 / 8, [&] { done_at = f.sim.now(); });
  // Max-min: stream capped at 5 (fair share), transfer gets 5 Mbps.
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 5e6, 1e4);
  f.sim.run_all();
  EXPECT_NEAR(sim::to_seconds(done_at), 2.0, 0.05);
  // After the transfer completes the stream returns to full demand.
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 8e6, 1e4);
}

TEST(Network, StreamDemandChange) {
  Fixture f;
  const StreamId s = f.net->open_stream(0, 1, mbps(2));
  f.net->set_stream_demand(s, mbps(7));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(s)), 7e6, 1e3);
}

TEST(Network, StaleStreamIdsAreInertAfterSlotReuse) {
  Fixture f;
  const StreamId first = f.net->open_stream(0, 1, mbps(3));
  f.net->close_stream(first);
  // The slot is reused, but the generation tag makes the new id distinct
  // and the old one stale.
  const StreamId second = f.net->open_stream(0, 1, mbps(5));
  EXPECT_NE(first, second);
  EXPECT_EQ(f.net->stream_rate(first), 0);
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);

  // Operations through the stale id must not disturb the live stream.
  f.net->set_stream_demand(first, mbps(1));
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);
  f.net->close_stream(first);  // double close: safe no-op
  EXPECT_EQ(f.net->stream_count(), 1u);
  EXPECT_NEAR(static_cast<double>(f.net->stream_rate(second)), 5e6, 1e3);

  f.net->close_stream(second);
  EXPECT_EQ(f.net->stream_count(), 0u);
  EXPECT_EQ(f.net->stream_rate(second), 0);
}

TEST(Network, StreamSlotReuseSurvivesHeavyChurn) {
  Fixture f;
  std::vector<StreamId> live;
  std::vector<StreamId> dead;
  for (int round = 0; round < 50; ++round) {
    live.push_back(f.net->open_stream(0, 1, mbps(1 + round % 5)));
    if (live.size() > 3) {
      f.net->close_stream(live.front());
      dead.push_back(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(f.net->stream_count(), live.size());
  for (StreamId id : dead) {
    EXPECT_EQ(f.net->stream_rate(id), 0) << "stale id " << id << " resolved";
  }
  for (StreamId id : live) {
    EXPECT_GT(f.net->stream_rate(id), 0) << "live id " << id << " lost";
  }
}

TEST(Network, TagByteAccounting) {
  Fixture f;
  f.net->start_transfer(0, 1, 500'000, [] {}, /*tag=*/42);
  f.sim.run_all();
  EXPECT_NEAR(static_cast<double>(f.net->take_tag_bytes(42)), 500'000, 10);
  EXPECT_EQ(f.net->take_tag_bytes(42), 0);  // window resets
  EXPECT_NEAR(static_cast<double>(f.net->total_tag_bytes(42)), 500'000, 10);
}

TEST(Network, StreamTagAccountingMatchesRateTimesTime) {
  Fixture f;
  f.net->open_stream(0, 1, mbps(4), /*tag=*/7);
  f.sim.run_until(sim::seconds(10));
  // 4 Mbps for 10 s = 5 MB.
  EXPECT_NEAR(static_cast<double>(f.net->take_tag_bytes(7)), 5e6, 5e4);
}

TEST(Network, PathCapacityAndAvailable) {
  Fixture f;
  EXPECT_EQ(f.net->path_capacity(0, 2), mbps(10));
  f.net->set_link_capacity_between(1, 2, mbps(4));
  EXPECT_EQ(f.net->path_capacity(0, 2), mbps(4));
  // An unbounded stream on 0->1 leaves the 0->2 path bottlenecked at 1->2.
  f.net->open_stream(0, 1, mbps(8));
  const Bps avail = f.net->path_available(0, 2);
  // Phantom flow would get max-min share: link0 10 shared (phantom vs 8 Mbps
  // stream -> 5 each, stream capped at 8 but fair share 5) => phantom gets
  // min(5 on link0... then 4 on link 1->2) = 4.
  EXPECT_NEAR(static_cast<double>(avail), 4e6, 1e5);
}

TEST(Network, BatchUpdateCoalescesReallocations) {
  Fixture f;
  f.net->open_stream(0, 1, mbps(5));
  const auto before = f.net->reallocation_count();
  {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(7));
    f.net->set_link_capacity_between(1, 2, mbps(7));
  }
  EXPECT_EQ(f.net->reallocation_count(), before + 1);
}

TEST(Network, AllocStatsTrackComponentScope) {
  Fixture f;
  const AllocStats& stats = f.net->alloc_stats();
  const auto base_full = stats.full_reallocations;

  // First stream is the whole active set: a full pass touching one flow.
  f.net->open_stream(0, 1, mbps(4));
  EXPECT_EQ(stats.reallocations, 1);
  EXPECT_EQ(stats.last_flows_touched, 1);
  EXPECT_EQ(stats.full_reallocations, base_full + 1);

  // Second stream lives on the other link: disjoint contention component,
  // so the pass reprices only the new flow and is not "full".
  f.net->open_stream(1, 2, mbps(4));
  EXPECT_EQ(stats.reallocations, 2);
  EXPECT_EQ(stats.last_flows_touched, 1);
  EXPECT_EQ(stats.full_reallocations, base_full + 1);

  // A stream spanning both links welds everything into one component.
  f.net->open_stream(0, 2, mbps(4));
  EXPECT_EQ(stats.reallocations, 3);
  EXPECT_EQ(stats.last_flows_touched, 3);
  EXPECT_EQ(stats.last_links_touched, 2);
  EXPECT_EQ(stats.max_component_flows, 3);
  // Cumulative touch count is the sum over the three passes.
  EXPECT_EQ(stats.flows_touched, 1 + 1 + 3);
  EXPECT_GT(stats.alloc_seconds, 0.0);
}

TEST(Network, AllocStatsBatchedTickCountsOnePass) {
  Fixture f;
  f.net->open_stream(0, 2, mbps(4));
  const AllocStats& stats = f.net->alloc_stats();
  const auto passes = stats.reallocations;
  const auto touched = stats.flows_touched;
  {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(6));
    f.net->set_link_capacity_between(1, 2, mbps(6));
  }
  // One batched tick = one pass repricing the single affected flow once.
  EXPECT_EQ(stats.reallocations, passes + 1);
  EXPECT_EQ(stats.flows_touched, touched + 1);
  EXPECT_EQ(stats.last_flows_touched, 1);
}

TEST(Network, BatchedCapacityChangeSettlesAccountingExactly) {
  Fixture f;
  // 4 Mbps stream for 5 s, then a batched two-link capacity drop pins it to
  // 2 Mbps for 5 s. Byte accounting must settle exactly once at the old
  // rate before the new rates apply: (4*5 + 2*5) Mbit = 3.75 MB.
  f.net->open_stream(0, 2, mbps(4), /*tag=*/9);
  f.sim.schedule_at(sim::seconds(5), [&] {
    Network::BatchUpdate batch(*f.net);
    f.net->set_link_capacity_between(0, 1, mbps(2));
    f.net->set_link_capacity_between(1, 2, mbps(2));
  });
  f.sim.run_until(sim::seconds(10));
  EXPECT_NEAR(static_cast<double>(f.net->take_tag_bytes(9)), 3.75e6, 2e4);
}

TEST(Network, ConservationAcrossManyTransfers) {
  Fixture f;
  // 20 staggered transfers in alternating directions; total delivered bytes
  // must equal total sent.
  std::int64_t sent = 0;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t bytes = 50'000 + 10'000 * i;
    const NodeId src = (i % 2 == 0) ? 0 : 2;
    const NodeId dst = (i % 2 == 0) ? 2 : 0;
    sent += bytes;
    f.sim.schedule_at(sim::millis(100 * i), [&f, bytes, src, dst, &completed] {
      f.net->start_transfer(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  f.sim.run_all();
  EXPECT_EQ(completed, 20);
  EXPECT_NEAR(static_cast<double>(f.net->total_bytes_delivered()),
              static_cast<double>(sent), 100.0);
}

// The link-pos pool is strided by the longest path any entity has used,
// growing as longer routes first appear. Growth must be invisible: a
// network whose stride grows mid-run (one-hop flows first, then longer
// ones, then churn) must price every step exactly like one that saw the
// longest path before anything else.
TEST(Network, LinkPosStrideGrowthKeepsRates) {
  Topology t;
  for (int i = 0; i < 6; ++i) t.add_node();
  for (int i = 0; i + 1 < 6; ++i) t.add_link(i, i + 1, mbps(10 + 5 * i));
  t.add_link(1, 4, mbps(7));

  struct Run {
    sim::Simulation sim;
    Network net;
    explicit Run(const Topology& topo) : net(sim, topo) {}
  };
  const auto script = [](Run& r) {
    std::vector<double> trace;
    std::vector<StreamId> open;
    const auto snapshot = [&] {
      for (StreamId id : open) trace.push_back(static_cast<double>(r.net.stream_rate(id)));
      for (LinkId l = 0; l < r.net.topology().link_count(); ++l) {
        trace.push_back(static_cast<double>(r.net.link_allocated(l)));
      }
    };
    for (NodeId i = 0; i + 1 < 6; ++i) {  // one-hop paths only
      open.push_back(r.net.open_stream(i, i + 1, mbps(4 + i)));
      open.push_back(r.net.open_stream(i + 1, i, mbps(3)));
    }
    snapshot();
    open.push_back(r.net.open_stream(0, 2, mbps(6)));  // 2 hops
    snapshot();
    open.push_back(r.net.open_stream(5, 0, mbps(9)));  // the longest path
    snapshot();
    for (int round = 0; round < 8; ++round) {  // churn
      const std::size_t victim = (round * 5) % open.size();
      r.net.close_stream(open[victim]);
      open[victim] = r.net.open_stream(static_cast<NodeId>(round % 6),
                                       static_cast<NodeId>((round * 3 + 2) % 6),
                                       mbps(2 + round));
      r.net.set_stream_demand(open[(victim + 1) % open.size()], mbps(1 + round));
      snapshot();
    }
    for (StreamId id : open) r.net.close_stream(id);
    open.clear();
    snapshot();
    return trace;
  };

  Run grown(t);
  const std::vector<double> grown_trace = script(grown);
  Run longest_first(t);
  longest_first.net.close_stream(longest_first.net.open_stream(5, 0, mbps(1)));
  const std::vector<double> reference = script(longest_first);

  EXPECT_EQ(grown_trace, reference);
  EXPECT_EQ(grown.net.stream_count(), 0u);
  for (LinkId l = 0; l < t.link_count(); ++l) EXPECT_EQ(grown.net.link_allocated(l), 0);
}

}  // namespace
}  // namespace bass::net
