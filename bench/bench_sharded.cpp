/// \file bench_sharded.cpp
/// \brief Monolithic vs region-sharded seeded placement at paper scale:
/// wall-clock, peak RSS, and QoR (HPWL/overflow) across shard counts.
///
/// Both arms run the same clustering (plain MFC) and uniform cluster shapes,
/// so the comparison isolates the placement strategy: one 14-iteration
/// incremental CG system over the whole netlist (monolithic) vs K small
/// per-region systems plus a short stitch (sharded). Results are emitted as
/// a ppacd-bench-perf-v1 report (--json, compare with tools/metric_diff.py)
/// and one ppacd-qor-v1 ledger per arm (--qor-dir, gate the sharded arms
/// against the monolithic ledger with tools/metric_diff.py --threshold 2).
///
/// Defaults are smoke-sized; the paper-scale run is
///   bench_sharded --design scale-1m --shards 1,2,4,8,16 --json ... --qor-dir ...
/// --shard-iters/--stitch-iters override ShardedOptions for tuning sweeps;
/// --mono-iters raises the monolithic incremental iteration budget for
/// iso-quality comparisons (how long must the monolithic arm run to match
/// the sharded arm's HPWL?).
/// Peak RSS (getrusage ru_maxrss) is process-wide and monotonic, so the
/// per-arm numbers are high-water marks after each arm in run order, not
/// independent measurements — run arms in separate processes for isolation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common.hpp"
#include "exec/exec.hpp"
#include "flow/qor.hpp"
#include "gen/scale.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace ppacd;

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
  return 0.0;
#endif
}

struct PerfEntry {
  std::string name;
  double ns_per_op = 0.0;
};

bool write_perf_json(const std::string& path,
                     const std::vector<PerfEntry>& entries) {
  using telemetry::Json;
  Json report = Json::object();
  report.set("schema", "ppacd-bench-perf-v1");
  report.set("binary", "bench_sharded");
  Json list = Json::array();
  for (const PerfEntry& e : entries) {
    Json entry = Json::object();
    entry.set("name", e.name);
    entry.set("ns_per_op", e.ns_per_op);
    entry.set("allocs_per_op", 0.0);  // flow timers do not count allocations
    entry.set("bytes_per_op", 0.0);
    entry.set("iterations", static_cast<std::int64_t>(1));
    list.push_back(std::move(entry));
  }
  report.set("kernels", std::move(list));
  std::ofstream out(path);
  if (!out) return false;
  out << report.dump(2) << "\n";
  return static_cast<bool>(out);
}

std::vector<int> parse_shards(const std::string& csv) {
  std::vector<int> shards;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string token =
        csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    const int value = std::atoi(token.c_str());
    if (value > 0) shards.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  std::string design_name = "scale-100k";
  std::string shard_list = "2,4,8";
  std::string json_path;
  std::string qor_dir;
  int cells = 0;
  int threads = 0;
  int shard_iters = 0;
  int stitch_iters = -1;
  int mono_iters = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--design") design_name = value();
    else if (arg == "--shards") shard_list = value();
    else if (arg == "--json") json_path = value();
    else if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    else if (arg == "--qor-dir") qor_dir = value();
    else if (arg == "--cells") cells = std::atoi(value());
    else if (arg == "--threads") threads = std::atoi(value());
    else if (arg == "--shard-iters") shard_iters = std::atoi(value());
    else if (arg == "--stitch-iters") stitch_iters = std::atoi(value());
    else if (arg == "--mono-iters") mono_iters = std::atoi(value());
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (threads > 0) exec::set_thread_count(threads);
  const std::vector<int> shard_counts = parse_shards(shard_list);

  gen::DesignSpec spec = gen::design_spec(design_name);
  if (cells > 0) spec.target_cells = cells;

  // Same clustering for every arm: plain MFC + uniform shapes keeps the
  // non-placement phases cheap and identical, so the wall-clock ratio below
  // measures the placement strategy alone.
  flow::FlowOptions options = bench::design_flow_options(spec);
  options.cluster_method = flow::ClusterMethod::kMfc;
  options.shape_mode = flow::ShapeMode::kUniform;

  util::Table table("Sharded placement: monolithic vs region-sharded (" +
                    design_name + ", " + std::to_string(exec::thread_count()) +
                    " threads)");
  table.set_header({"Arm", "Place s", "Speedup", "HPWL um", "dHPWL %",
                    "Fallbacks", "RSS MB"});
  util::CsvWriter csv;
  csv.set_header({"arm", "shards", "clustering_s", "placement_s", "speedup",
                  "hpwl_um", "hpwl_delta_pct", "fallbacks", "peak_rss_mb"});
  std::vector<PerfEntry> perf;

  auto qor_path = [&](const std::string& arm) {
    return qor_dir + "/sharded_" + arm + ".qor.json";
  };

  // --- Monolithic arm --------------------------------------------------------
  netlist::Netlist nl_mono = bench::make_design(spec);
  flow::FlowOptions mono_options = options;
  if (mono_iters > 0) mono_options.placer.incremental_iterations = mono_iters;
  const flow::FlowResult mono = flow::try_run(nl_mono, mono_options).value();
  const double mono_rss = peak_rss_mb();
  table.add_row({"monolithic", bench::fmt(mono.place.placement_seconds, 2),
                 "1.00", bench::fmt(mono.place.hpwl_um, 0), "0.00", "0",
                 bench::fmt(mono_rss, 0)});
  csv.add_row({"monolithic", "0", bench::fmt(mono.place.clustering_seconds, 3),
               bench::fmt(mono.place.placement_seconds, 3), "1.0",
               bench::fmt(mono.place.hpwl_um, 1), "0.0", "0",
               bench::fmt(mono_rss, 1)});
  perf.push_back({"sharded/" + design_name + "/monolithic_place",
                  mono.place.placement_seconds * 1e9});
  if (!qor_dir.empty()) flow::write_qor(qor_path("mono"), design_name, "mono", mono);

  // --- Sharded arms ----------------------------------------------------------
  bool met_speedup = false;
  bool met_quality = false;
  for (const int shards : shard_counts) {
    netlist::Netlist nl = bench::make_design(spec);
    flow::FlowOptions sharded_options = options;
    sharded_options.strategy = flow::PlaceStrategy::kSharded;
    sharded_options.sharding.shards = shards;
    if (shard_iters > 0) sharded_options.sharding.shard_iterations = shard_iters;
    if (stitch_iters >= 0) sharded_options.sharding.stitch_iterations = stitch_iters;
    const flow::FlowResult run = flow::try_run(nl, sharded_options).value();
    const double rss = peak_rss_mb();
    const double speedup =
        run.place.placement_seconds > 0.0
            ? mono.place.placement_seconds / run.place.placement_seconds
            : 0.0;
    const double delta_pct =
        (run.place.hpwl_um / mono.place.hpwl_um - 1.0) * 100.0;
    met_speedup = met_speedup || speedup >= 2.0;
    met_quality = met_quality || (speedup >= 2.0 && delta_pct <= 2.0);
    const std::string arm = "shards" + std::to_string(shards);
    table.add_row({arm, bench::fmt(run.place.placement_seconds, 2),
                   bench::fmt(speedup, 2), bench::fmt(run.place.hpwl_um, 0),
                   bench::fmt(delta_pct, 2),
                   std::to_string(run.place.shard_fallbacks),
                   bench::fmt(rss, 0)});
    csv.add_row({arm, std::to_string(shards),
                 bench::fmt(run.place.clustering_seconds, 3),
                 bench::fmt(run.place.placement_seconds, 3),
                 bench::fmt(speedup, 3), bench::fmt(run.place.hpwl_um, 1),
                 bench::fmt(delta_pct, 3),
                 std::to_string(run.place.shard_fallbacks),
                 bench::fmt(rss, 1)});
    perf.push_back({"sharded/" + design_name + "/" + arm + "_place",
                    run.place.placement_seconds * 1e9});
    if (!qor_dir.empty()) {
      flow::write_qor(qor_path(arm), design_name, "sharded", run);
    }
  }

  table.print();
  bench::write_results(csv, "sharded");
  std::printf("\nTarget: >= 2x placement wall-clock at >= 1M instances with\n"
              "<= 2%% HPWL regression (gate the qor ledgers with\n"
              "tools/metric_diff.py --threshold 2 --fail-on-regression).\n"
              "Best arm meets speedup: %s, meets speedup+quality: %s\n",
              met_speedup ? "yes" : "no", met_quality ? "yes" : "no");
  if (!json_path.empty()) {
    if (!write_perf_json(json_path, perf)) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf report written to %s\n", json_path.c_str());
  }
  return 0;
}
