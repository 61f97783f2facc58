#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace bass::scenario {
namespace {

constexpr const char* kMinimal = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[link a b]
capacity_mbps = 20
[component x]
cpu = 1000
[component y]
cpu = 1000
[edge x y]
bandwidth_mbps = 2
request_bytes = 1000
response_bytes = 2000
[workload]
rps = 20
client = a
[run]
duration_s = 30
)";

std::unique_ptr<Scenario> build(const std::string& text) {
  const auto ini = util::parse_ini(text);
  EXPECT_TRUE(ini.ok()) << (ini.ok() ? "" : ini.error());
  auto s = Scenario::from_ini(ini.value());
  EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error());
  return s.ok() ? std::move(s.value()) : nullptr;
}

TEST(Scenario, MinimalRunsAndReports) {
  auto s = build(kMinimal);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->duration(), sim::seconds(30));
  EXPECT_NE(s->node_id("a"), net::kInvalidNode);
  EXPECT_EQ(s->node_id("zzz"), net::kInvalidNode);
  const auto report = s->run();
  EXPECT_NEAR(static_cast<double>(report.requests_issued), 600, 10);
  EXPECT_EQ(report.requests_completed, report.requests_issued);
  EXPECT_GT(report.latency_mean_ms, 0);
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_GT(report.probe_bytes, 0);  // monitor on by default
  // The invariant checker rides along by default and stays quiet.
  EXPECT_NE(s->invariants(), nullptr);
  EXPECT_EQ(report.invariant_violations, 0);
  EXPECT_EQ(report.faults_injected, 0);
}

TEST(Scenario, SecondRunIsNoOp) {
  auto s = build(kMinimal);
  ASSERT_NE(s, nullptr);
  const auto first = s->run();
  const auto second = s->run();
  EXPECT_GT(first.requests_issued, 0);
  EXPECT_EQ(second.requests_issued, 0);
}

TEST(Scenario, PinnedComponentHonored) {
  std::string text = kMinimal;
  text.replace(text.find("[component y]\ncpu = 1000"), 24,
               "[component y]\ncpu = 1000\npinned = b");
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->orchestrator().node_of(s->deployment(), s->app().find("y")),
            s->node_id("b"));
}

TEST(Scenario, RejectsUnknownNodeInLink) {
  const auto ini = util::parse_ini("[node a]\n[link a ghost]\n[component x]\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("unknown node"), std::string::npos);
}

TEST(Scenario, RejectsPartitionedMesh) {
  const auto ini = util::parse_ini(
      "[node a]\n[node b]\n[node c]\n[link a b]\n[component x]\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("partitioned"), std::string::npos);
}

TEST(Scenario, RejectsCyclicApp) {
  std::string text = kMinimal;
  text += "[edge y x]\nbandwidth_mbps = 1\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("cycle"), std::string::npos);
}

TEST(Scenario, RejectsUnplaceableApp) {
  std::string text = kMinimal;
  text.replace(text.find("[component x]\ncpu = 1000"), 24,
               "[component x]\ncpu = 64000");
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("placement failed"), std::string::npos);
}

TEST(Scenario, RejectsDuplicateNames) {
  const auto ini = util::parse_ini("[node a]\n[node a]\n");
  ASSERT_TRUE(ini.ok());
  EXPECT_FALSE(Scenario::from_ini(ini.value()).ok());
}

util::Expected<std::unique_ptr<Scenario>> load_shipped(const std::string& name) {
  // ctest runs from build/tests; try source-relative fallbacks.
  for (const char* prefix : {"", "../../", "../"}) {
    auto s = Scenario::from_file(prefix + ("examples/scenarios/" + name));
    if (s.ok()) return s;
  }
  return Scenario::from_file("examples/scenarios/" + name);
}

TEST(Scenario, ShippedScenarioLoads) {
  // Keep the example scenario files valid as the code evolves.
  auto s = load_shipped("community_mesh.ini");
  ASSERT_TRUE(s.ok()) << s.error();
  EXPECT_EQ(s.value()->app().component_count(), 3);
  EXPECT_EQ(s.value()->app().find("db") != app::kInvalidComponent, true);
}

TEST(Scenario, ShippedConferenceScenarioLoads) {
  auto s = load_shipped("rooftop_conference.ini");
  ASSERT_TRUE(s.ok()) << s.error();
  // SFU + 3 client groups.
  EXPECT_EQ(s.value()->app().component_count(), 4);
  EXPECT_NE(s.value()->app().find("pion-sfu"), app::kInvalidComponent);
}

TEST(Scenario, MigrationSectionDrivesController) {
  std::string text = R"(
[node a]
cpu = 2000
[node b]
cpu = 2000
[node c]
cpu = 2000
[link a b]
capacity_mbps = 10
[link b c]
capacity_mbps = 10
[link a c]
capacity_mbps = 10
[component x]
cpu = 1500
[component y]
cpu = 1500
[edge x y]
bandwidth_mbps = 6
request_bytes = 4000
response_bytes = 18000
[scheduler]
kind = k3s
[migration]
enabled = true
threshold = 0.4
interval_s = 10
cooldown_s = 10
restart_s = 5
[workload]
rps = 50
client = a
[run]
duration_s = 180
)";
  auto s = build(text);
  ASSERT_NE(s, nullptr);
  // k3s spreads the 6 Mbps pair; 50 rps x 18 KB x 8 = 7.2 Mbps of traffic
  // saturates the 10 Mbps link, so the controller must act.
  const auto xa = s->orchestrator().node_of(s->deployment(), 0);
  const auto ya = s->orchestrator().node_of(s->deployment(), 1);
  ASSERT_NE(xa, ya);
  const auto report = s->run();
  EXPECT_GE(report.migrations, 1u);
  EXPECT_EQ(report.invariant_violations, 0);
}

}  // namespace
}  // namespace bass::scenario

namespace bass::scenario {
namespace {

constexpr const char* kConference = R"(
[node hub]
cpu = 8000
[node east]
cpu = 2000
[node west]
cpu = 2000
[link hub east]
capacity_mbps = 20
[link hub west]
capacity_mbps = 20
[link east west]
capacity_mbps = 5
[workload]
type = conference
per_stream_kbps = 500
[clients east]
count = 3
[clients west]
count = 3
[run]
duration_s = 120
)";

TEST(Scenario, ConferenceBuildsSfuAppAndReportsBitrates) {
  const auto ini = util::parse_ini(kConference);
  ASSERT_TRUE(ini.ok());
  auto s = Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  EXPECT_EQ(scene.app().component_count(), 3);  // sfu + 2 client groups
  EXPECT_NE(scene.app().find("pion-sfu"), app::kInvalidComponent);

  const auto report = scene.run();
  ASSERT_EQ(report.median_bitrate_bps.size(), 2u);
  // 6 participants x 500 Kbps: each client expects 5 x 500 = 2.5 Mbps, and
  // the 20 Mbps spokes carry it (3 clients x 2.5 = 7.5 + uplinks).
  for (const auto& [node, bps] : report.median_bitrate_bps) {
    EXPECT_NEAR(bps, 2.5e6, 2e5) << "node " << node;
  }
  EXPECT_EQ(report.requests_issued, 0);
  EXPECT_EQ(report.invariant_violations, 0);
}

TEST(Scenario, ConferenceRejectsComponents) {
  std::string text = kConference;
  text += "[component rogue]\ncpu = 100\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("[clients]"), std::string::npos);
}

TEST(Scenario, ConferenceNeedsClients) {
  const auto ini = util::parse_ini(
      "[node a]\ncpu = 4000\n[workload]\ntype = conference\n");
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("clients"), std::string::npos);
}

}  // namespace
}  // namespace bass::scenario

namespace bass::scenario {
namespace {

TEST(Scenario, TraceFileImport) {
  // Record a trace, then replay it from the scenario file.
  trace::BandwidthTrace recorded;
  recorded.append(sim::seconds(0), net::mbps(20));
  recorded.append(sim::seconds(10), net::mbps(2));
  const std::string path = "/tmp/bass_scenario_trace.csv";
  ASSERT_TRUE(recorded.save_csv(path));

  std::string text = kMinimal;
  text += "[trace a b]\nfile = " + path + "\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  auto s = Scenario::from_ini(ini.value());
  ASSERT_TRUE(s.ok()) << s.error();
  auto& scene = *s.value();
  // Let the replay reach t=10s+: the link must sit at 2 Mbps.
  scene.orchestrator().simulation().run_until(sim::seconds(15));
  EXPECT_EQ(scene.network().path_capacity(scene.node_id("a"), scene.node_id("b")),
            net::mbps(2));
}

TEST(Scenario, TraceFileMissingIsAnError) {
  std::string text = kMinimal;
  text += "[trace a b]\nfile = /no/such/trace.csv\n";
  const auto ini = util::parse_ini(text);
  ASSERT_TRUE(ini.ok());
  const auto s = Scenario::from_ini(ini.value());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("cannot load"), std::string::npos);
}

constexpr const char* kServe = R"(
[node a]
cpu = 4000
[node b]
cpu = 4000
[link a b]
capacity_mbps = 20
[serve]
mode = adaptive
arrival_per_min = 2
mean_lifetime_s = 60
[run]
duration_s = 60
)";

// Makes `line` the first key of [section]; the first occurrence of a key
// wins, so it overrides whatever the section sets later.
std::string with_key(std::string text, const std::string& section,
                     const std::string& line) {
  const std::string heading = "[" + section + "]\n";
  const auto at = text.find(heading);
  EXPECT_NE(at, std::string::npos) << heading;
  return text.insert(at + heading.size(), line + "\n");
}

TEST(Scenario, ServeAndRunRejectBadNumbers) {
  ASSERT_NE(build(kServe), nullptr);
  struct Case {
    const char* section;
    const char* line;
    const char* error;
  };
  const Case cases[] = {
      {"serve", "arrival_per_min = nan", "[serve]: arrival_per_min"},
      {"serve", "arrival_per_min = inf", "[serve]: arrival_per_min"},
      {"serve", "arrival_per_min = -1", "[serve]: arrival_per_min"},
      {"serve", "mean_lifetime_s = -5", "[serve]: mean_lifetime_s"},
      {"serve", "mean_lifetime_s = 0", "[serve]: mean_lifetime_s"},
      {"serve", "seed = nan", "[serve]: seed"},
      {"serve", "retry_s = -inf", "[serve]: retry_s"},
      {"run", "duration_s = -1", "[run]: duration_s"},
      {"run", "duration_s = 0", "[run]: duration_s"},
      {"run", "duration_s = inf", "[run]: duration_s"},
      {"run", "duration_s = nan", "[run]: duration_s"},
  };
  for (const Case& c : cases) {
    const auto ini = util::parse_ini(with_key(kServe, c.section, c.line));
    ASSERT_TRUE(ini.ok());
    const auto s = Scenario::from_ini(ini.value());
    ASSERT_FALSE(s.ok()) << c.line;
    EXPECT_NE(s.error().find(c.error), std::string::npos) << s.error();
  }
  // [run] is shared with non-serving scenarios.
  const auto ini = util::parse_ini(with_key(kMinimal, "run", "duration_s = -1"));
  ASSERT_TRUE(ini.ok());
  EXPECT_FALSE(Scenario::from_ini(ini.value()).ok());
}

}  // namespace
}  // namespace bass::scenario
