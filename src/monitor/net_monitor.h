// The BASS net-monitor (§4.2): per-node daemons that measure the wireless
// links. Two probe types, both injected as real traffic into the flow
// simulator so probe overhead and interference are modelled:
//
//  * max-capacity probe — flood the directed link for probe_duration and
//    take what arrives (plus the passively observed competing traffic) as
//    the link's capacity estimate. Run once for every link at startup and
//    again on demand.
//  * headroom probe — offer only headroom_frac of the cached capacity.
//    Headroom is missing when either (i) the link cannot deliver the probe
//    in full, or (ii) delivering it *displaced* application traffic — the
//    node-pair TX counters show the concurrent traffic dropping while the
//    probe ran, meaning the probe's bytes came out of the application's
//    share rather than out of spare capacity. Either way a violation is
//    reported (and a full probe re-estimates the link).
//
// Between probes the monitor answers capacity queries from its cache — the
// scheduler's view of the mesh is *measured*, not oracular.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.h"
#include "obs/recorder.h"
#include "sched/network_view.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace bass::monitor {

struct MonitorConfig {
  sim::Duration probe_interval = sim::seconds(30);  // §6.3.4: every 30 s
  sim::Duration probe_duration = sim::seconds(1);   // §6.3.4: 1 s probes
  double headroom_frac = 0.10;                      // §6.3.4: 10 % of capacity
  // Delivered/offered ratio below which a headroom probe counts as failed.
  double violation_ratio = 0.90;
  // Automatically schedule a max-capacity probe after a headroom violation
  // (the Fig. 8 walkthrough behaviour).
  bool full_probe_on_violation = true;
  // Slow full-capacity refresh of every link. Headroom probes are sized by
  // the *cached* capacity, so a link that degraded and later recovered
  // would keep a stale-low estimate forever without an occasional flood
  // (the paper's cache likewise holds "until a new capacity probe request
  // is made by the bandwidth controller"). 0 disables.
  sim::Duration full_refresh_interval = sim::minutes(5);
  // Ablation: flood every link every round instead of headroom-probing —
  // the naive always-measure strategy BASS's two-tier probing replaces
  // (§4.2). Expect an order of magnitude more probe traffic.
  bool always_full_probe = false;
};

class NetMonitor {
 public:
  NetMonitor(net::Network& network, MonitorConfig config = {});
  ~NetMonitor();
  NetMonitor(const NetMonitor&) = delete;
  NetMonitor& operator=(const NetMonitor&) = delete;

  // Startup max-capacity probing round + periodic headroom probing.
  void start();
  void stop();

  // ---- Cached measurements (what BASS actually schedules against) ----
  net::Bps cached_capacity(net::LinkId link) const;
  // Bottleneck of cached capacities along the routed path; kUnlimitedRate
  // for src == dst.
  net::Bps cached_path_capacity(net::NodeId src, net::NodeId dst) const;
  // Result of the latest headroom probe: true while the spare capacity was
  // delivered in full. Links never probed report true.
  bool headroom_ok(net::LinkId link) const;

  // ---- Events ----
  // Fired when a headroom probe comes up short: (link, delivered bps).
  using ViolationCallback = std::function<void(net::LinkId, net::Bps)>;
  void set_violation_callback(ViolationCallback cb) { on_violation_ = std::move(cb); }

  // Attaches the run's recorder: probes journal ProbeCompleted, shortfalls
  // journal HeadroomViolation, and probe costs are mirrored into the
  // registry (monitor.probe_bytes, monitor.probes{kind=...}). nullptr
  // detaches.
  void set_recorder(obs::Recorder* recorder);

  // ---- On-demand probing ----
  // Floods the link now; `done` receives the new capacity estimate.
  void full_probe(net::LinkId link, std::function<void(net::Bps)> done = {});

  // ---- Fault injection ----
  // Each finished probe's RESULT is lost with probability `rate`: the probe
  // traffic is still spent (overhead stays real), but the cache and
  // headroom state keep their stale values — a lossy mesh eating the
  // monitor's report packets. 0 disables. Deterministic per seed.
  void set_probe_loss(double rate, std::uint64_t seed = 0xBA55);
  int probes_dropped() const { return probes_dropped_; }

  // ---- Overhead accounting (§6.3.4) ----
  std::int64_t probe_bytes_sent() const { return probe_bytes_; }
  int full_probe_count() const { return full_probes_; }
  int headroom_probe_count() const { return headroom_probes_; }
  // Headroom violations detected since start(); monotonic, so deltas tell
  // "did a probe come up short since I last looked" (the gated sharded
  // orchestrator's probe-activity signal).
  int violation_count() const { return violations_; }

  const net::Network& network() const { return *network_; }
  const MonitorConfig& config() const { return config_; }

 private:
  struct LinkState {
    net::Bps cached_capacity = 0;
    bool headroom_ok = true;
    bool probing = false;  // a probe stream is currently live on this link
  };

  void run_headroom_round();
  void launch_probe(net::LinkId link, net::Bps demand, bool is_full,
                    std::function<void(net::Bps)> done);

  net::Network* network_;
  MonitorConfig config_;
  std::vector<LinkState> links_;
  ViolationCallback on_violation_;
  obs::Recorder* recorder_ = nullptr;
  obs::Counter* m_probe_bytes_ = nullptr;
  obs::Counter* m_full_probes_ = nullptr;
  obs::Counter* m_headroom_probes_ = nullptr;
  obs::Counter* m_violations_ = nullptr;
  obs::Counter* m_probes_dropped_ = nullptr;
  obs::LogHistogram* m_probe_rtt_us_ = nullptr;
  sim::EventId periodic_ = sim::kInvalidEvent;
  sim::EventId refresh_ = sim::kInvalidEvent;
  bool started_ = false;
  std::int64_t probe_bytes_ = 0;
  int full_probes_ = 0;
  int headroom_probes_ = 0;
  int violations_ = 0;
  double probe_loss_rate_ = 0.0;
  std::unique_ptr<util::Rng> loss_rng_;
  int probes_dropped_ = 0;
  net::Tag next_probe_tag_;
};

// Scheduler view backed by the monitor's probe cache: BASS places
// components against measured capacities.
class MonitorNetworkView final : public sched::NetworkView {
 public:
  explicit MonitorNetworkView(const NetMonitor& monitor) : monitor_(&monitor) {}

  int link_count() const override {
    return monitor_->network().topology().link_count();
  }
  net::Bps link_capacity(net::LinkId link) const override {
    return monitor_->cached_capacity(link);
  }
  std::span<const net::LinkId> path(net::NodeId src, net::NodeId dst) const override {
    return monitor_->network().routing().path(src, dst);
  }
  net::Bps node_link_capacity(net::NodeId node) const override;
  sim::Duration path_latency(net::NodeId src, net::NodeId dst) const override {
    return monitor_->network().path_latency(src, dst);
  }

 private:
  const NetMonitor* monitor_;
};

}  // namespace bass::monitor
