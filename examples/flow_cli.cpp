/// \file flow_cli.cpp
/// \brief Command-line front end for the whole library: read (or generate)
/// a design, run a flow, evaluate PPA, and write interchange/visualization
/// artifacts. This is the example to start from when integrating the
/// library with external netlists.
///
/// Usage:
///   flow_cli [--design NAME | --verilog FILE] [--tool openroad|innovus]
///            [--flow default|ours|blob|leiden|mfc|bc|overlay]
///            [--sharded] [--shards N] [--place-only] [--list-designs]
///            [--shapes uniform|random|vpr] [--clock PS] [--opt] [--detailed]
///            [--write-verilog FILE] [--write-def FILE] [--write-svg FILE]
///            [--write-congestion FILE] [--report-paths N]
///            [--cells N] [--report FILE] [--trace FILE] [--check LEVEL]
///            [--threads N] [--fault-plan SPEC]
///            [--observe[=FILE]] [--qor[=FILE]]
///
/// --list-designs prints every generatable design (the six Table-1 stand-ins
/// plus the scaled 1M-5M tier from src/gen/scale.hpp) with its instance
/// count, Rent exponent, and generator seed, then exits.
/// --flow and --sharded select FlowOptions::strategy: --flow default is
/// PlaceStrategy::kFlat; every other --flow value names a cluster method and
/// runs PlaceStrategy::kSeeded, or PlaceStrategy::kSharded (region-sharded
/// seeded placement instead of the monolithic incremental pass) with
/// --sharded; --shards sets the region count (default 8). --place-only skips
/// the post-route PPA evaluation — the right mode for million-instance scale
/// runs where routing dominates.
///
/// Usage errors exit with status 1 and a one-line message: an unknown flag;
/// a --design, --tool, --flow or --shapes value outside the lists above;
/// --sharded with --flow default (the flat flow has no clusters to shard);
/// and a --cells, --threads, --shards, --report-paths or --clock value that
/// is not a non-negative number (0 means "default" for each of them).
///
/// --report writes the telemetry run report (flow config, lane count, phase
/// timings, counters, PPA outcome unless --place-only, errors/degradations)
/// as JSON; --trace writes a Chrome trace_event file loadable in
/// chrome://tracing or https://ui.perfetto.dev. An output file (--report,
/// --trace, --observe, --qor, --write-*) that cannot be written exits with
/// status 1.
/// --observe enables the flight recorder (src/observe) and writes the
/// event stream (convergence samples, heatmaps, histograms; schema
/// ppacd-observe-v1) to FILE (default observe_events.json) — feed it to
/// tools/flow_dashboard.py for a static HTML dashboard. --qor writes the
/// QoR ledger (schema ppacd-qor-v1; final PPA metrics + convergence
/// summaries) to FILE (default bench_results/<design>.qor.json) — compare
/// ledgers with tools/metric_diff.py.
/// --check off|cheap|full runs the src/check invariant validators between
/// flow phases; any violation is logged, reported, and makes the process
/// exit with status 2 (so CI can gate on it).
/// --fault-plan installs a deterministic fault-injection plan (see
/// src/fault/fault.hpp for the grammar, e.g.
/// "seed=7;vpr.shape_eval=error%0.5;sta.arrival=poison"); the PPACD_FAULTS
/// environment variable is used when the flag is absent. The flow degrades
/// gracefully through its always-on fallbacks (src/flow/flow.hpp); an error
/// no fallback absorbs prints its code and exits with status 3. The
/// --write-congestion and --report-paths artifacts run outside the flow: a
/// failure there skips the artifact with one line on stderr.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <new>
#include <optional>
#include <string>

#include "check/check.hpp"
#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "gen/designs.hpp"
#include "gen/generator.hpp"
#include "gen/scale.hpp"
#include "flow/qor.hpp"
#include "netlist/io.hpp"
#include "netlist/stats.hpp"
#include "observe/observe.hpp"
#include "route/global_router.hpp"
#include "sta/report.hpp"
#include "telemetry/telemetry.hpp"
#include "viz/viz.hpp"

namespace {

struct Args {
  std::string design = "aes";
  std::string verilog_in;
  std::string tool = "openroad";
  std::string flow = "ours";
  std::string shapes = "vpr";
  double clock_ps = 0.0;  // 0 = design default
  std::string write_verilog;
  std::string write_def;
  std::string write_svg;
  std::string write_congestion;
  int report_paths = 0;
  int cells = 0;  // 0 = design default
  std::string report_json;
  std::string trace_json;
  bool timing_opt = false;
  bool detailed = false;
  bool sharded = false;
  int shards = 0;  // 0 = ShardedOptions default
  bool place_only = false;
  bool list_designs = false;
  int threads = 0;  // 0 = PPACD_THREADS env / hardware default
  ppacd::check::CheckLevel check_level = ppacd::check::CheckLevel::kOff;
  std::string fault_plan;  // empty = PPACD_FAULTS env (if set)
  bool observe = false;
  std::string observe_path = "observe_events.json";
  bool qor = false;
  std::string qor_path;  // empty = bench_results/<design>.qor.json
};

/// Parses a non-negative number (the whole of `text`) into `out`.
template <typename T>
bool parse_number(const std::string& flag, const char* text, T* out) {
  const char* end = text + std::strlen(text);
  T parsed{};
  const auto [ptr, ec] = std::from_chars(text, end, parsed);
  if (ec != std::errc() || ptr != end || !(parsed >= 0) ||
      !std::isfinite(static_cast<double>(parsed))) {
    std::fprintf(stderr, "%s expects a non-negative number, got \"%s\"\n",
                 flag.c_str(), text);
    return false;
  }
  *out = parsed;
  return true;
}

/// Accepts `text` into `out` when it is one of `choices`.
bool parse_choice(const std::string& flag, const char* text,
                  std::initializer_list<const char*> choices, std::string* out) {
  std::string expected;
  for (const char* choice : choices) {
    if (std::strcmp(text, choice) == 0) {
      *out = text;
      return true;
    }
    expected += expected.empty() ? choice : std::string("|") + choice;
  }
  std::fprintf(stderr, "%s expects %s, got \"%s\"\n", flag.c_str(),
               expected.c_str(), text);
  return false;
}

/// Reports an artifact write: "wrote PATH" on stdout when `ok`, otherwise
/// "cannot write PATH" on stderr. Returns `ok`.
bool announce_write(const std::string& path, bool ok) {
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  return ok;
}

bool known_design(const std::string& name) {
  for (const ppacd::gen::DesignSpec& spec : ppacd::gen::all_design_specs()) {
    if (spec.name == name) return true;
  }
  return ppacd::gen::find_scaled_design(name) != nullptr;
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    bool ok = true;
    if (arg == "--design") args->design = value();
    else if (arg == "--verilog") args->verilog_in = value();
    else if (arg == "--tool") {
      ok = parse_choice(arg, value(), {"openroad", "innovus"}, &args->tool);
    }
    else if (arg == "--flow") {
      ok = parse_choice(arg, value(),
                        {"default", "ours", "blob", "leiden", "mfc", "bc",
                         "overlay"},
                        &args->flow);
    }
    else if (arg == "--shapes") {
      ok = parse_choice(arg, value(), {"uniform", "random", "vpr"},
                        &args->shapes);
    }
    else if (arg == "--clock") ok = parse_number(arg, value(), &args->clock_ps);
    else if (arg == "--write-verilog") args->write_verilog = value();
    else if (arg == "--write-def") args->write_def = value();
    else if (arg == "--write-svg") args->write_svg = value();
    else if (arg == "--write-congestion") args->write_congestion = value();
    else if (arg == "--report-paths") {
      ok = parse_number(arg, value(), &args->report_paths);
    }
    else if (arg == "--cells") ok = parse_number(arg, value(), &args->cells);
    else if (arg == "--report") args->report_json = value();
    else if (arg == "--trace") args->trace_json = value();
    else if (arg == "--opt") args->timing_opt = true;
    else if (arg == "--detailed") args->detailed = true;
    else if (arg == "--sharded") args->sharded = true;
    else if (arg == "--shards") ok = parse_number(arg, value(), &args->shards);
    else if (arg == "--place-only") args->place_only = true;
    else if (arg == "--list-designs") args->list_designs = true;
    else if (arg == "--observe") args->observe = true;
    else if (arg.rfind("--observe=", 0) == 0) {
      args->observe = true;
      args->observe_path = arg.substr(std::strlen("--observe="));
    }
    else if (arg == "--qor") args->qor = true;
    else if (arg.rfind("--qor=", 0) == 0) {
      args->qor = true;
      args->qor_path = arg.substr(std::strlen("--qor="));
    }
    else if (arg == "--threads") ok = parse_number(arg, value(), &args->threads);
    else if (arg == "--fault-plan") args->fault_plan = value();
    else if (arg == "--check") {
      const char* level = value();
      if (!ppacd::check::parse_check_level(level, &args->check_level)) {
        std::fprintf(stderr, "--check expects off|cheap|full, got \"%s\"\n",
                     level);
        return false;
      }
    }
    else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (args->verilog_in.empty() && !args->list_designs &&
      !known_design(args->design)) {
    std::fprintf(stderr,
                 "--design: unknown design \"%s\" (see --list-designs)\n",
                 args->design.c_str());
    return false;
  }
  if (args->sharded && args->flow == "default") {
    std::fprintf(stderr,
                 "--sharded needs a clustered --flow; \"default\" is flat\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppacd;
  Args args;
  if (!parse_args(argc, argv, &args)) return 1;
  if (args.list_designs) {
    std::printf("%-18s %-9s %10s %6s %12s\n", "name", "family", "instances",
                "rent", "seed");
    for (const gen::DesignSpec& spec : gen::all_design_specs()) {
      std::printf("%-18s %-9s %10d %6s %#12llx\n", spec.name.c_str(), "paper",
                  spec.target_cells, "-",
                  static_cast<unsigned long long>(spec.seed));
    }
    for (const gen::ScaledDesignInfo& info : gen::scaled_design_tier()) {
      std::printf("%-18s %-9s %10d %6.2f %#12llx\n", info.name.c_str(),
                  info.family.c_str(), info.target_cells, info.rent_exponent,
                  static_cast<unsigned long long>(info.seed));
    }
    return 0;
  }
  if (args.threads > 0) exec::set_thread_count(args.threads);

  // --- Flight recorder ---------------------------------------------------------
  if (args.observe) observe::recorder().set_enabled(true);

  // --- Fault plan (CLI flag wins over the PPACD_FAULTS environment) -----------
  if (!args.fault_plan.empty()) {
    auto plan = fault::parse_plan(args.fault_plan);
    if (!plan.has_value()) {
      std::fprintf(stderr, "--fault-plan: %s (%s)\n",
                   plan.error().message.c_str(), plan.error().code.c_str());
      return 1;
    }
    fault::set_plan(plan.value());
  } else {
    auto env_plan = fault::install_env_plan();
    if (!env_plan.has_value()) {
      std::fprintf(stderr, "PPACD_FAULTS: %s (%s)\n",
                   env_plan.error().message.c_str(),
                   env_plan.error().code.c_str());
      return 1;
    }
  }

  const liberty::Library lib = liberty::Library::nangate45_like();

  // --- Obtain the design -----------------------------------------------------
  std::optional<netlist::Netlist> design;
  double default_clock = 1000.0;
  if (!args.verilog_in.empty()) {
    auto loaded = netlist::try_load_verilog(args.verilog_in, lib);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "%s: %s (%s)\n", args.verilog_in.c_str(),
                   loaded.error().message.c_str(), loaded.error().code.c_str());
      return 3;
    }
    design = std::move(loaded).value();
  } else {
    gen::DesignSpec spec = gen::design_spec(args.design);
    if (args.cells > 0) spec.target_cells = args.cells;
    design = gen::generate(lib, spec);
    default_clock = spec.clock_period_ps;
  }
  std::printf("design: %s\n",
              netlist::to_string(netlist::compute_stats(*design)).c_str());

  // --- Configure the flow -----------------------------------------------------
  flow::FlowOptions options;
  options.clock_period_ps = args.clock_ps > 0.0 ? args.clock_ps : default_clock;
  options.tool = args.tool == "innovus" ? flow::Tool::kInnovusLike
                                        : flow::Tool::kOpenRoadLike;
  options.vpr.min_cluster_instances = 30;
  if (args.shapes == "uniform") options.shape_mode = flow::ShapeMode::kUniform;
  else if (args.shapes == "random") options.shape_mode = flow::ShapeMode::kRandom;
  else options.shape_mode = flow::ShapeMode::kVpr;
  if (args.flow == "default") options.strategy = flow::PlaceStrategy::kFlat;
  else if (args.sharded) options.strategy = flow::PlaceStrategy::kSharded;
  if (args.flow == "blob") options.cluster_method = flow::ClusterMethod::kLouvainBlob;
  else if (args.flow == "leiden") options.cluster_method = flow::ClusterMethod::kLeiden;
  else if (args.flow == "mfc") options.cluster_method = flow::ClusterMethod::kMfc;
  else if (args.flow == "bc") options.cluster_method = flow::ClusterMethod::kBestChoice;
  else if (args.flow == "overlay") options.cluster_method = flow::ClusterMethod::kCutOverlay;
  options.timing_optimization = args.timing_opt;
  options.detailed_placement = args.detailed;
  options.check_level = args.check_level;
  if (args.shards > 0) options.sharding.shards = args.shards;

  // --- Run ---------------------------------------------------------------------
  auto fail_flow = [&](const fault::FlowError& error) {
    fault::record_error(error);
    std::fprintf(stderr, "flow error: %s at %s: %s\n", error.code.c_str(),
                 error.site.c_str(), error.message.c_str());
    if (!args.report_json.empty()) {
      flow::RunReportInputs report;
      report.design =
          design->name().empty() ? args.design : std::string(design->name());
      report.flow = args.flow;
      report.options = &options;
      flow::write_run_report(args.report_json, report);
    }
    return 3;
  };
  auto result_or = flow::try_run(*design, options);
  if (!result_or.has_value()) return fail_flow(result_or.error());
  flow::FlowResult result = std::move(result_or).value();
  flow::PpaOutcome ppa;
  if (!args.place_only) {
    auto ppa_or = flow::try_evaluate_ppa(*design, result.place.positions, options);
    if (!ppa_or.has_value()) return fail_flow(ppa_or.error());
    ppa = std::move(ppa_or).value();
    result.ppa = ppa;
  }
  for (const auto& d : fault::degradation_log()) {
    std::printf("degraded: %s (%s) -> %s\n", d.site.c_str(),
                d.error_code.c_str(), d.fallback.c_str());
  }
  if (args.sharded) {
    std::printf("placement: HPWL %.0f um in %.2fs (%d clusters, %d shards, "
                "%d fallbacks)\n",
                result.place.hpwl_um,
                result.place.clustering_seconds + result.place.placement_seconds,
                result.place.cluster_count, result.place.shard_count,
                result.place.shard_fallbacks);
  } else {
    std::printf("placement: HPWL %.0f um in %.2fs (%d clusters)\n",
                result.place.hpwl_um,
                result.place.clustering_seconds + result.place.placement_seconds,
                result.place.cluster_count);
  }
  if (!args.place_only) {
    std::printf(
        "post-route: rWL %.0f um, WNS %.0f ps, TNS %.2f ns, power %.4f W\n",
        ppa.rwl_um, ppa.wns_ps, ppa.tns_ns, ppa.power_w);
  }

  int exit_code = 0;
  if (args.check_level != check::CheckLevel::kOff) {
    const std::size_t violations = check::logged_violations();
    std::printf("check violations: %zu (%s level)\n", violations,
                check::to_string(args.check_level));
    if (violations > 0) exit_code = 2;
  }

  const std::string design_name =
      design->name().empty() ? args.design : std::string(design->name());
  if (!args.report_json.empty()) {
    flow::RunReportInputs report;
    report.design = design_name;
    report.flow = args.flow;
    report.options = &options;
    report.place = &result.place;
    report.ppa = args.place_only ? nullptr : &ppa;
    if (!announce_write(args.report_json,
                        flow::write_run_report(args.report_json, report))) {
      return 1;
    }
  }
  if (!args.trace_json.empty() &&
      !announce_write(args.trace_json,
                      telemetry::write_chrome_trace(args.trace_json))) {
    return 1;
  }
  if (args.observe &&
      !announce_write(args.observe_path,
                      observe::write_events(args.observe_path, design_name))) {
    return 1;
  }
  if (args.qor) {
    std::string qor_path = args.qor_path;
    if (qor_path.empty()) {
      std::error_code ec;
      std::filesystem::create_directories("bench_results", ec);
      qor_path = "bench_results/" + design_name + ".qor.json";
    }
    const std::string flow_label =
        args.sharded ? args.flow + "+sharded" : args.flow;
    if (!announce_write(qor_path, flow::write_qor(qor_path, design_name,
                                                  flow_label, result))) {
      return 1;
    }
  }

  // --- Artifacts ------------------------------------------------------------------
  geom::BBox box;
  for (const auto& p : result.place.positions) box.expand(p);
  for (std::size_t po = 0; po < design->port_count(); ++po) {
    box.expand(design->port(static_cast<netlist::PortId>(po)).position);
  }
  if (!args.write_verilog.empty()) {
    std::ofstream out(args.write_verilog);
    netlist::write_verilog(*design, out);
    out.close();
    if (!announce_write(args.write_verilog, !out.fail())) return 1;
  }
  if (!args.write_def.empty()) {
    std::ofstream out(args.write_def);
    netlist::write_placement_def(*design, result.place.positions, box.rect(), out);
    out.close();
    if (!announce_write(args.write_def, !out.fail())) return 1;
  }
  if (!args.write_svg.empty() &&
      !announce_write(args.write_svg,
                      viz::write_placement_svg_file(
                          *design, result.place.positions, box.rect(),
                          viz::SvgOptions{}, args.write_svg))) {
    return 1;
  }
  if (!args.write_congestion.empty()) {
    route::GlobalRouter router(*design, result.place.positions, box.rect(),
                               options.router);
    try {
      if (!announce_write(args.write_congestion,
                          viz::write_congestion_ppm_file(
                              router.run(), args.write_congestion))) {
        return 1;
      }
    } catch (const std::bad_alloc&) {
      std::fprintf(stderr, "--write-congestion: alloc-failure\n");
    }
  }
  if (args.report_paths > 0) {
    sta::StaOptions sta_options;
    sta_options.clock_period_ps = options.clock_period_ps;
    sta_options.cell_positions = &result.place.positions;
    sta::Sta sta(*design, sta_options);
    auto timed = sta.try_run();
    if (timed.has_value()) {
      const auto paths = static_cast<std::size_t>(args.report_paths);
      std::printf("\n%s\n%s", sta::report_summary(*design, sta).c_str(),
                  sta::report_checks(*design, sta, paths).c_str());
    } else {
      std::fprintf(stderr, "--report-paths: %s\n", timed.error().code.c_str());
    }
  }
  return exit_code;
}
