#include "monitor/net_monitor.h"

#include <algorithm>

#include "util/logging.h"

namespace bass::monitor {

namespace {
// Probe traffic is tagged so delivered bytes can be read back per probe.
constexpr net::Tag kProbeTagBase = 0xBA55'0000'0000'0000ULL;
}  // namespace

NetMonitor::NetMonitor(net::Network& network, MonitorConfig config)
    : network_(&network),
      config_(config),
      links_(static_cast<std::size_t>(network.topology().link_count())),
      next_probe_tag_(kProbeTagBase) {
  // Until the first probe round, fall back to nominal capacities (the
  // operator's initial link inventory).
  for (int l = 0; l < network.topology().link_count(); ++l) {
    links_[static_cast<std::size_t>(l)].cached_capacity = network.topology().link(l).capacity;
  }
}

NetMonitor::~NetMonitor() { stop(); }

void NetMonitor::start() {
  if (started_) return;
  started_ = true;
  // Startup round: flood every directed link in parallel (§4.2 "when the
  // system starts up ... flooding each link with packets").
  for (int l = 0; l < network_->topology().link_count(); ++l) {
    full_probe(l);
  }
  periodic_ = network_->simulation().schedule_periodic(
      config_.probe_interval, [this] { run_headroom_round(); });
  if (config_.full_refresh_interval > 0) {
    refresh_ = network_->simulation().schedule_periodic(
        config_.full_refresh_interval, [this] {
          for (int l = 0; l < network_->topology().link_count(); ++l) {
            full_probe(l);
          }
        });
  }
}

void NetMonitor::stop() {
  if (!started_) return;
  started_ = false;
  if (periodic_ != sim::kInvalidEvent) {
    network_->simulation().cancel_periodic(periodic_);
    periodic_ = sim::kInvalidEvent;
  }
  if (refresh_ != sim::kInvalidEvent) {
    network_->simulation().cancel_periodic(refresh_);
    refresh_ = sim::kInvalidEvent;
  }
}

void NetMonitor::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  if (recorder == nullptr) {
    m_probe_bytes_ = nullptr;
    m_full_probes_ = nullptr;
    m_headroom_probes_ = nullptr;
    m_violations_ = nullptr;
    m_probes_dropped_ = nullptr;
    m_probe_rtt_us_ = nullptr;
    return;
  }
  auto& metrics = recorder->metrics();
  m_probe_bytes_ = &metrics.counter("monitor.probe_bytes");
  m_full_probes_ = &metrics.counter("monitor.probes", {{"kind", "full"}});
  m_headroom_probes_ = &metrics.counter("monitor.probes", {{"kind", "headroom"}});
  m_violations_ = &metrics.counter("monitor.headroom_violations");
  m_probes_dropped_ = &metrics.counter("monitor.probes_dropped");
  m_probe_rtt_us_ = &metrics.log_histogram("monitor.probe_rtt_us");
}

void NetMonitor::set_probe_loss(double rate, std::uint64_t seed) {
  probe_loss_rate_ = std::clamp(rate, 0.0, 1.0);
  if (probe_loss_rate_ > 0 && loss_rng_ == nullptr) {
    loss_rng_ = std::make_unique<util::Rng>(seed);
  }
}

net::Bps NetMonitor::cached_capacity(net::LinkId link) const {
  return links_.at(static_cast<std::size_t>(link)).cached_capacity;
}

net::Bps NetMonitor::cached_path_capacity(net::NodeId src, net::NodeId dst) const {
  if (src == dst) return net::kUnlimitedRate;
  const std::span<const net::LinkId> path = network_->routing().path(src, dst);
  if (path.empty()) return 0;
  net::Bps bottleneck = net::kUnlimitedRate;
  for (net::LinkId l : path) bottleneck = std::min(bottleneck, cached_capacity(l));
  return bottleneck;
}

bool NetMonitor::headroom_ok(net::LinkId link) const {
  return links_.at(static_cast<std::size_t>(link)).headroom_ok;
}

void NetMonitor::full_probe(net::LinkId link, std::function<void(net::Bps)> done) {
  ++full_probes_;
  launch_probe(link, net::kUnlimitedRate, /*is_full=*/true, std::move(done));
}

void NetMonitor::run_headroom_round() {
  for (int l = 0; l < network_->topology().link_count(); ++l) {
    const LinkState& state = links_[static_cast<std::size_t>(l)];
    if (state.probing) continue;  // don't stack probes on one link
    if (config_.always_full_probe) {
      full_probe(l);
      continue;
    }
    const net::Bps demand = static_cast<net::Bps>(
        static_cast<double>(state.cached_capacity) * config_.headroom_frac);
    if (demand <= 0) continue;
    ++headroom_probes_;
    launch_probe(l, demand, /*is_full=*/false, {});
  }
}

void NetMonitor::launch_probe(net::LinkId link, net::Bps demand, bool is_full,
                              std::function<void(net::Bps)> done) {
  LinkState& state = links_[static_cast<std::size_t>(link)];
  if (state.probing) {
    if (done) done(state.cached_capacity);
    return;
  }
  state.probing = true;

  // The probe's span is allocated at launch — its completion, any headroom
  // violation it detects, and a lost-probe record all chain back to it.
  const obs::SpanId probe_span =
      recorder_ != nullptr ? recorder_->new_span() : obs::kNoSpan;
  const sim::Time launched = network_->simulation().now();

  const auto& l = network_->topology().link(link);
  const net::Tag tag = next_probe_tag_++;
  // Concurrent application traffic before the probe perturbs the link
  // (from the per-node TX counters — the eBPF metric of §5).
  const net::Bps usage_before = network_->link_allocated(link);
  const net::StreamId stream = network_->open_stream(l.src, l.dst, demand, tag);

  network_->simulation().schedule_after(
      config_.probe_duration,
      [this, link, demand, is_full, tag, stream, usage_before, probe_span,
       launched, done = std::move(done)] {
        // Competing application traffic on the link while the probe ran,
        // read from the node-pair TX counters (the eBPF metric): the
        // capacity estimate is probe goodput + concurrent usage.
        const net::Bps others =
            std::max<net::Bps>(network_->link_allocated(link) -
                                   network_->stream_rate(stream),
                               0);
        network_->close_stream(stream);
        const std::int64_t delivered = network_->take_tag_bytes(tag);
        probe_bytes_ += delivered;
        // Injected probe loss: the traffic was spent but the result never
        // reached the monitor — cache and headroom state stay stale.
        if (probe_loss_rate_ > 0 && loss_rng_ != nullptr &&
            loss_rng_->chance(probe_loss_rate_)) {
          LinkState& lost = links_[static_cast<std::size_t>(link)];
          lost.probing = false;
          ++probes_dropped_;
          if (recorder_ != nullptr) {
            m_probes_dropped_->inc();
            m_probe_bytes_->add(delivered);
            const auto& dropped_link = network_->topology().link(link);
            obs::FaultInjected lost_event;
            lost_event.at = network_->simulation().now();
            lost_event.kind = "probe_lost";
            lost_event.node = dropped_link.src;
            lost_event.peer = dropped_link.dst;
            lost_event.value = probe_loss_rate_;
            lost_event.parent = probe_span;  // the probe whose result vanished
            recorder_->record(lost_event);
          }
          if (done) done(lost.cached_capacity);
          return;
        }
        const net::Bps measured = static_cast<net::Bps>(
            static_cast<double>(delivered) * 8e6 /
            static_cast<double>(config_.probe_duration));
        if (recorder_ != nullptr) {
          m_probe_bytes_->add(delivered);
          (is_full ? m_full_probes_ : m_headroom_probes_)->inc();
          // Launch-to-result latency in sim time: constant while probes are
          // timer-driven, but the histogram is the scrape point a real
          // deployment would chart, and merge-tested across sweep workers.
          m_probe_rtt_us_->observe(
              static_cast<double>(network_->simulation().now() - launched));
          obs::ProbeCompleted completed;
          completed.at = network_->simulation().now();
          completed.link = link;
          completed.full = is_full;
          completed.offered_bps = demand;
          completed.measured_bps = measured;
          completed.bytes = delivered;
          completed.span = probe_span;
          recorder_->record(completed);
        }

        LinkState& state = links_[static_cast<std::size_t>(link)];
        state.probing = false;
        if (is_full) {
          // Note: a full probe refreshes the capacity estimate but does
          // NOT clear a standing headroom violation — only a succeeding
          // headroom probe does, otherwise the violation signal would be
          // erased by the very probe it triggered.
          state.cached_capacity = measured + others;
          util::log_debug() << "full probe link " << link << " -> "
                            << state.cached_capacity << " bps";
        } else {
          const bool delivered_in_full =
              static_cast<double>(measured) >=
              static_cast<double>(demand) * config_.violation_ratio;
          // Displacement: if the app's concurrent rate shrank by more than
          // measurement noise while the probe ran, the probe's bytes were
          // taken from the application, not from spare capacity.
          const double tolerance =
              std::max(static_cast<double>(usage_before) * 0.05, 100e3);
          const bool displaced =
              static_cast<double>(others) <
              static_cast<double>(usage_before) - tolerance;
          const bool ok = delivered_in_full && !displaced;
          state.headroom_ok = ok;
          if (!ok) {
            ++violations_;
            util::log_debug() << "headroom violation on link " << link
                              << " delivered " << measured << " of " << demand;
            if (recorder_ != nullptr) {
              m_violations_->inc();
              obs::HeadroomViolation violation;
              violation.at = network_->simulation().now();
              violation.link = link;
              violation.delivered_bps = measured;
              violation.span = recorder_->new_span();
              violation.parent = probe_span;  // the probe that came up short
              recorder_->record(violation);
            }
            if (on_violation_) on_violation_(link, measured);
            if (config_.full_probe_on_violation) full_probe(link);
          }
        }
        if (done) done(state.cached_capacity);
      });
}

net::Bps MonitorNetworkView::node_link_capacity(net::NodeId node) const {
  net::Bps total = 0;
  for (net::LinkId l : monitor_->network().topology().out_links(node)) {
    total += monitor_->cached_capacity(l);
  }
  return total;
}

}  // namespace bass::monitor
