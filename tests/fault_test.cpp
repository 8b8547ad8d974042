/// \file fault_test.cpp
/// \brief Fault-injection campaigns: every registered site x {error, timeout,
/// poison} under a seeded plan, asserting the flow either completes with the
/// degradations recorded (and every reported metric finite) or returns a
/// structured FlowError — never crashes, asserts, or leaks NaN into results.
///
/// Registered with ctest label "fault" so CI can run the campaign under the
/// asan-ubsan preset (`ctest -L fault`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "netlist/io.hpp"
#include "route/global_router.hpp"
#include "telemetry/telemetry.hpp"

namespace ppacd {
namespace {

liberty::Library& lib() {
  static liberty::Library instance = liberty::Library::nangate45_like();
  return instance;
}

/// Stub GNN predictor: finite, shape-dependent costs so the ml.predict site
/// is exercised (it only fires when a predictor is configured).
vpr::ShapeCostPredictor stub_predictor() {
  return [](const netlist::Netlist&,
            const std::vector<cluster::ClusterShape>& candidates) {
    std::vector<double> costs;
    costs.reserve(candidates.size());
    for (const cluster::ClusterShape& shape : candidates) {
      costs.push_back(100.0 + shape.aspect_ratio + shape.utilization);
    }
    return costs;
  };
}

struct CampaignOutcome {
  bool ok = false;
  fault::FlowError error;                       ///< set when !ok
  flow::FlowResult result;                      ///< set when ok
  flow::PpaOutcome ppa;                         ///< set when ok
  std::vector<fault::Degradation> degradations;
};

/// The campaign design: small, so every campaign stays fast.
netlist::Netlist campaign_design() {
  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 400;
  return gen::generate(lib(), design);
}

/// The campaign flow: clustered, with exact V-P&R shaping every cluster above
/// 20 instances.
flow::FlowOptions campaign_options() {
  flow::FlowOptions options;
  options.clock_period_ps = 550.0;
  options.fc.target_cluster_count = 8;
  options.vpr.min_cluster_instances = 20;
  options.shape_mode = flow::ShapeMode::kVpr;
  options.sharding.shards = 4;
  return options;
}

/// Runs the full clustered flow + PPA evaluation on the campaign design
/// under the given plan spec. With `use_ml` the stub predictor shapes the
/// clusters, so the ml.predict site is reachable; `sharded` selects the
/// sharded placement, where the place.shard site lives.
CampaignOutcome run_campaign(const std::string& spec, bool use_ml = true,
                             bool sharded = false) {
  auto plan = fault::parse_plan(spec);
  EXPECT_TRUE(plan.has_value()) << spec;
  fault::set_plan(plan.value());

  netlist::Netlist nl = campaign_design();
  flow::FlowOptions options = campaign_options();
  const vpr::ShapeCostPredictor predictor = stub_predictor();
  if (use_ml) {
    options.shape_mode = flow::ShapeMode::kVprMl;
    options.ml_predictor = &predictor;
  }
  if (sharded) options.strategy = flow::PlaceStrategy::kSharded;

  CampaignOutcome outcome;
  auto result = flow::try_run(nl, options);
  if (!result.has_value()) {
    outcome.error = result.error();
  } else {
    outcome.result = std::move(result).value();
    auto ppa =
        flow::try_evaluate_ppa(nl, outcome.result.place.positions, options);
    if (!ppa.has_value()) {
      outcome.error = ppa.error();
    } else {
      outcome.ok = true;
      outcome.ppa = std::move(ppa).value();
    }
  }
  outcome.degradations = fault::degradation_log();
  fault::clear_plan();
  return outcome;
}

void expect_finite_metrics(const CampaignOutcome& outcome,
                           const std::string& campaign) {
  EXPECT_TRUE(std::isfinite(outcome.result.place.hpwl_um)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.rwl_um)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.wns_ps)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.tns_ns)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.power_w)) << campaign;
  EXPECT_TRUE(std::isfinite(outcome.ppa.clock_skew_ps)) << campaign;
  for (const geom::Point& p : outcome.result.place.positions) {
    ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << campaign;
  }
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear_plan();
    fault::reset_log();
    telemetry::metrics().reset();
  }
  void TearDown() override {
    fault::clear_plan();
    fault::reset_log();
    telemetry::metrics().reset();
  }
};

// ---------------------------------------------------------------------------
// The campaign: every registered site x {error, timeout, poison}
// ---------------------------------------------------------------------------

TEST_F(FaultTest, CampaignEverySiteEveryKindDegradesGracefully) {
  const char* kinds[] = {"error", "timeout", "poison"};
  for (const std::string& site : fault::registered_sites()) {
    if (site == "io.read") continue;  // no deserialization in this flow;
                                      // covered by IoReadFaults below
    for (const char* kind : kinds) {
      const std::string spec = "seed=11;" + site + "=" + kind;
      fault::reset_log();
      telemetry::metrics().reset();
      // The ML predictor bypasses the exact sweep, so the vpr.shape_eval
      // site is only reachable in exact V-P&R mode; place.shard only fires
      // inside the sharded flow.
      const bool use_ml = site != "vpr.shape_eval";
      const bool sharded = site == "place.shard";
      const CampaignOutcome outcome = run_campaign(spec, use_ml, sharded);
      // The fallbacks absorb every unconditional single-site fault: the
      // flow must complete, with the fallback on record and finite metrics.
      ASSERT_TRUE(outcome.ok)
          << spec << " -> " << outcome.error.code << ": "
          << outcome.error.message;
      EXPECT_FALSE(outcome.degradations.empty()) << spec;
      expect_finite_metrics(outcome, spec);
      // Telemetry attribution: the injection counter for this kind moved.
      EXPECT_GT(telemetry::metrics()
                    .counter(std::string("fault.injected.") + kind)
                    .value(),
                0)
          << spec;
    }
  }
}

TEST_F(FaultTest, CampaignTransientFaultsAcrossSites) {
  // Probabilistic (transient) faults at several sites at once: retries may
  // clear them, everything else degrades. Still must never crash or go
  // non-finite.
  const CampaignOutcome outcome = run_campaign(
      "seed=13;vpr.shape_eval=error%0.5;ml.predict=error%0.5;"
      "route.maze=error%0.3;sta.arrival=poison");
  ASSERT_TRUE(outcome.ok) << outcome.error.code;
  expect_finite_metrics(outcome, "transient campaign");
  EXPECT_FALSE(outcome.degradations.empty());
}

/// Records in `degradations` with this site, error code and fallback.
std::size_t count_records(const std::vector<fault::Degradation>& degradations,
                          const std::string& site, const std::string& code,
                          const std::string& fallback) {
  return static_cast<std::size_t>(std::count_if(
      degradations.begin(), degradations.end(),
      [&](const fault::Degradation& d) {
        return d.site == site && d.error_code == code &&
               d.fallback == fallback;
      }));
}

TEST_F(FaultTest, AllocFaultYieldsStructuredErrorOrDegradation) {
  // kAlloc throws std::bad_alloc at the site. Where a fallback owns the
  // failing operation the flow completes with that fallback on record;
  // anywhere else the run fails with a structured "alloc-failure".
  for (const std::string& site : fault::registered_sites()) {
    if (site == "io.read") continue;  // covered by IoReadFaults below
    fault::reset_log();
    const std::string spec = "seed=17;" + site + "=alloc@1";
    // As in the main campaign, vpr.shape_eval needs exact V-P&R.
    const CampaignOutcome outcome = run_campaign(
        spec, site != "vpr.shape_eval", site == "place.shard");
    const std::vector<fault::Degradation>& log = outcome.degradations;
    if (site == "place.solve" || site == "route.maze") {
      ASSERT_FALSE(outcome.ok) << spec;
      EXPECT_EQ(outcome.error.code, "alloc-failure") << spec;
      continue;
    }
    ASSERT_TRUE(outcome.ok) << spec << " -> " << outcome.error.code;
    expect_finite_metrics(outcome, spec);
    if (site == "ml.predict") {
      EXPECT_EQ(count_records(log, site, "alloc-failure", "vpr-exact"), 1u);
    } else if (site == "place.shard") {
      EXPECT_GE(count_records(log, site, "alloc-failure", "vpr-seed"), 1u);
    } else if (site == "sta.arrival") {
      EXPECT_EQ(count_records(log, site, "alloc-failure", "hpwl-only"), 2u);
    } else if (site == "vpr.shape_eval") {
      ASSERT_FALSE(log.empty()) << spec;
      EXPECT_EQ(count_records(log, site, "alloc-failure", "default-shape"),
                log.size());
    } else {
      ADD_FAILURE() << "no expected outcome for site " << site;
    }
  }
}

// ---------------------------------------------------------------------------
// io.read: structured errors from deserialization
// ---------------------------------------------------------------------------

TEST_F(FaultTest, IoReadFaultsReturnStructuredErrors) {
  gen::DesignSpec design = gen::design_spec("aes");
  design.target_cells = 200;
  const netlist::Netlist nl = gen::generate(lib(), design);
  std::ostringstream text;
  netlist::write_verilog(nl, text);

  const struct {
    const char* kind;
    const char* code;
  } cases[] = {{"error", "io-read-failed"},
               {"timeout", "io-read-timeout"},
               {"alloc", "alloc-failure"}};
  for (const auto& c : cases) {
    auto plan = fault::parse_plan(std::string("io.read=") + c.kind);
    ASSERT_TRUE(plan.has_value());
    fault::set_plan(plan.value());
    std::istringstream in(text.str());
    auto loaded = netlist::try_read_verilog(in, lib());
    fault::clear_plan();
    ASSERT_FALSE(loaded.has_value()) << c.kind;
    EXPECT_EQ(loaded.error().code, c.code);
    EXPECT_EQ(loaded.error().site, "io.read");
  }

  // Clean plan: the same stream parses fine.
  std::istringstream in(text.str());
  auto loaded = netlist::try_read_verilog(in, lib());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded.value().cell_count(), nl.cell_count());
}

TEST_F(FaultTest, IoLoadMissingFileIsStructuredNotFatal) {
  auto loaded =
      netlist::try_load_verilog("/nonexistent/path/design.v", lib());
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.error().code, "io-open-failed");
}

// ---------------------------------------------------------------------------
// The fallbacks
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ShardFaultFallsBackToSeedAndRecordsDegradation) {
  // One shard solve fails; that shard keeps its VPR seed placement and the
  // sharded flow still completes with finite metrics.
  const CampaignOutcome outcome =
      run_campaign("seed=5;place.shard=error@1", true, true);
  ASSERT_TRUE(outcome.ok) << outcome.error.code << ": "
                          << outcome.error.message;
  bool saw_seed_fallback = false;
  for (const fault::Degradation& d : outcome.degradations) {
    if (d.site == "place.shard") {
      EXPECT_EQ(d.fallback, "vpr-seed");
      saw_seed_fallback = true;
    }
  }
  EXPECT_TRUE(saw_seed_fallback);
  expect_finite_metrics(outcome, "shard fallback");
}

TEST_F(FaultTest, MlFallbackRecordsVprExactDegradation) {
  const CampaignOutcome outcome = run_campaign("seed=5;ml.predict=error");
  ASSERT_TRUE(outcome.ok) << outcome.error.code;
  bool saw_ml_fallback = false;
  for (const fault::Degradation& d : outcome.degradations) {
    if (d.site == "ml.predict") {
      EXPECT_EQ(d.fallback, "vpr-exact");
      saw_ml_fallback = true;
    }
  }
  EXPECT_TRUE(saw_ml_fallback);
}

TEST_F(FaultTest, MissingPredictorFallsBackToExactVpr) {
  // ShapeMode::kVprMl without a predictor is an ML failure like any other:
  // one ml-predictor-missing record, then the placement exact V-P&R gives.
  netlist::Netlist exact_nl = campaign_design();
  flow::FlowOptions options = campaign_options();
  const auto exact = flow::try_run(exact_nl, options);
  ASSERT_TRUE(exact.has_value()) << exact.error().code;
  EXPECT_TRUE(fault::degradation_log().empty());

  netlist::Netlist ml_nl = campaign_design();
  options.shape_mode = flow::ShapeMode::kVprMl;  // ml_predictor stays null
  const auto ml = flow::try_run(ml_nl, options);
  ASSERT_TRUE(ml.has_value()) << ml.error().code;
  const std::vector<fault::Degradation> log = fault::degradation_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (fault::Degradation{"ml.predict", "ml-predictor-missing",
                                        "vpr-exact",
                                        "predictor not configured"}));

  const std::vector<geom::Point>& a = exact.value().place.positions;
  const std::vector<geom::Point>& b = ml.value().place.positions;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].x, b[i].x) << i;
    ASSERT_EQ(a[i].y, b[i].y) << i;
  }
  EXPECT_EQ(exact.value().place.hpwl_um, ml.value().place.hpwl_um);
}

TEST_F(FaultTest, RouterRetriesEachFailedNetTwice) {
  // A net whose route.maze fault fires is retried serially with attempts 1
  // and 2; it stays unrouted only when attempts 0, 1 and 2 all fire.
  netlist::Netlist nl = campaign_design();
  flow::FlowOptions options = campaign_options();
  options.strategy = flow::PlaceStrategy::kFlat;
  const auto placed = flow::try_run(nl, options);
  ASSERT_TRUE(placed.has_value()) << placed.error().code;
  const std::vector<geom::Point>& positions = placed.value().place.positions;
  geom::BBox box;
  for (const geom::Point& p : positions) box.expand(p);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    box.expand(nl.port(static_cast<netlist::PortId>(po)).position);
  }

  auto plan = fault::parse_plan("seed=19;route.maze=error%0.5");
  ASSERT_TRUE(plan.has_value());
  fault::set_plan(plan.value());
  const route::RouteResult routed =
      route::GlobalRouter(nl, positions, box.rect(), route::RouteOptions{})
          .run();
  int expected = 0;
  for (std::size_t ni = 0; ni < nl.net_count(); ++ni) {
    const netlist::Net& net = nl.net(static_cast<netlist::NetId>(ni));
    if (net.pins.size() < 2 || net.is_clock) continue;  // not routed
    std::uint32_t fired = 0;
    for (std::uint32_t attempt = 0; attempt <= 2; ++attempt) {
      fired += fault::trigger("route.maze", ni, attempt).has_value() ? 1 : 0;
    }
    if (fired == 3) ++expected;
  }
  fault::clear_plan();
  EXPECT_GT(expected, 0);
  EXPECT_EQ(routed.failed_nets, expected);
}

// ---------------------------------------------------------------------------
// Plan parsing and the clean-path guarantee
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus.site=error",        // unknown site
      "sta.arrival=explode",     // unknown kind
      "sta.arrival",             // missing '=KIND'
      "seed=notanumber",         // bad seed
      "sta.arrival=error@zero",  // bad selector ordinal
      "sta.arrival=error%2.0",   // probability out of (0,1]
      "sta.arrival=error%0",     // probability out of (0,1]
  };
  for (const char* spec : bad) {
    auto plan = fault::parse_plan(spec);
    EXPECT_FALSE(plan.has_value()) << spec;
    if (!plan.has_value()) {
      EXPECT_FALSE(plan.error().code.empty()) << spec;
      EXPECT_FALSE(plan.error().message.empty()) << spec;
    }
  }
  // Empty / whitespace specs are a valid empty plan.
  auto empty = fault::parse_plan("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty.value().empty());
}

TEST_F(FaultTest, NoPlanMeansNoTriggers) {
  fault::clear_plan();
  EXPECT_FALSE(fault::plan_active());
  for (const std::string& site : fault::registered_sites()) {
    EXPECT_FALSE(fault::trigger(site, 0).has_value()) << site;
    EXPECT_FALSE(fault::trigger(site, 42).has_value()) << site;
  }
}

TEST_F(FaultTest, TriggerIsDeterministicPerKey) {
  auto plan = fault::parse_plan("seed=21;route.maze=error%0.5");
  ASSERT_TRUE(plan.has_value());
  fault::set_plan(plan.value());
  // The decision for a key is a pure function of (seed, site, key, attempt):
  // re-querying in any order reproduces it exactly.
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 64; ++key) {
    first.push_back(fault::trigger("route.maze", key).has_value());
  }
  for (std::uint64_t key = 64; key-- > 0;) {
    EXPECT_EQ(fault::trigger("route.maze", key).has_value(), first[key])
        << key;
  }
  // ~0.5 probability: both outcomes occur across 64 keys.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
  fault::clear_plan();
}

}  // namespace
}  // namespace ppacd
