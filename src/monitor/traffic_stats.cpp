#include "monitor/traffic_stats.h"

namespace bass::monitor {

namespace {

net::Bps rate_of(std::int64_t bytes, sim::Duration window) {
  if (window <= 0) return 0;
  return static_cast<net::Bps>(static_cast<double>(bytes) * 8e6 /
                               static_cast<double>(window));
}

}  // namespace

TrafficStats::TrafficStats(const app::AppGraph& app) {
  slots_.reserve(app.edges().size());
  for (const app::Edge& e : app.edges()) slots_.push_back({.from = e.from, .to = e.to});
}

int TrafficStats::edge_index(app::ComponentId from, app::ComponentId to) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].from == from && slots_[i].to == to) return static_cast<int>(i);
  }
  return -1;
}

void TrafficStats::record(int edge, std::int64_t bytes) {
  Slot& s = slots_[static_cast<std::size_t>(edge)];
  s.window_bytes += bytes;
  s.total_bytes += bytes;
}

void TrafficStats::record(app::ComponentId from, app::ComponentId to, std::int64_t bytes) {
  if (const int edge = edge_index(from, to); edge >= 0) record(edge, bytes);
}

void TrafficStats::record_offered(int edge, std::int64_t bytes) {
  slots_[static_cast<std::size_t>(edge)].window_offered += bytes;
}

void TrafficStats::record_offered(app::ComponentId from, app::ComponentId to,
                                  std::int64_t bytes) {
  if (const int edge = edge_index(from, to); edge >= 0) record_offered(edge, bytes);
}

std::int64_t TrafficStats::total_bytes(app::ComponentId from, app::ComponentId to) const {
  const int edge = edge_index(from, to);
  return edge < 0 ? 0 : total_bytes(edge);
}

TrafficStats::WindowRates TrafficStats::take_window(int edge, sim::Time now) {
  Slot& s = slots_[static_cast<std::size_t>(edge)];
  WindowRates rates{rate_of(s.window_bytes, now - s.window_start),
                    rate_of(s.window_offered, now - s.window_start)};
  s.window_bytes = 0;
  s.window_offered = 0;
  s.window_start = now;
  return rates;
}

TrafficStats::WindowRates TrafficStats::take_window(app::ComponentId from,
                                                    app::ComponentId to, sim::Time now) {
  const int edge = edge_index(from, to);
  return edge < 0 ? WindowRates{} : take_window(edge, now);
}

}  // namespace bass::monitor
