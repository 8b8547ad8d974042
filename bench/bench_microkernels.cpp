/// \file bench_microkernels.cpp
/// \brief google-benchmark timings of the substrate kernels: global
/// placement, global routing, STA, and the clustering engines. These are the
/// per-stage costs behind Table 2's CPU column.
///
/// Besides wall time, every kernel reports allocs/op and bytes/op measured
/// through the counting operator new in alloc_count.cpp — the perf-regression
/// harness watches both. `--json out.json` (conventionally BENCH_perf.json)
/// writes a machine-readable report; tools/metric_diff.py compares two such
/// reports and flags regressions.
///
/// `--min-of N` (or env PPACD_BENCH_REPEATS=N) runs every kernel N times and
/// reports the best-of-N ns/op in both the console and the JSON report —
/// best-of filters scheduler noise on loaded CI runners, where a mean would
/// absorb it. The flag wins over the environment variable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "cluster/best_choice.hpp"
#include "cluster/community.hpp"
#include "cluster/fc_multilevel.hpp"
#include "cluster/graph.hpp"
#include "common.hpp"
#include "exec/exec.hpp"
#include "hier/dendrogram.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "route/global_router.hpp"
#include "sta/activity.hpp"
#include "sta/sta.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace ppacd;

/// Shared medium design (ariane-scaled) so kernels compare apples to apples.
struct Fixture {
  Fixture() : nl(bench::make_design(gen::design_spec("ariane"))) {
    place::FloorplanOptions fpo;
    fpo.utilization = 0.65;
    fp = place::Floorplan::create(nl.total_cell_area(),
                                  bench::library().row_height_um(), fpo);
    place::place_ports_on_boundary(nl, fp);
    model = place::make_place_model(nl, fp);
    const auto gp = place::GlobalPlacer(model, place::GlobalPlacerOptions{}).run();
    const auto lg = place::legalize(model, gp.placement);
    positions = place::cell_positions(nl, lg.placement);
  }
  netlist::Netlist nl;
  place::Floorplan fp;
  place::PlaceModel model;
  std::vector<geom::Point> positions;
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

/// Sets allocs/op + bytes/op counters from the heap deltas over the scope's
/// lifetime. Declare after the fixture is built and before the timed loop.
class AllocCounters {
 public:
  explicit AllocCounters(benchmark::State& state)
      : state_(state), start_(bench::alloc_snapshot()) {}
  ~AllocCounters() {
    const bench::AllocSnapshot d = bench::alloc_delta(start_);
    const double iters =
        std::max<double>(1.0, static_cast<double>(state_.iterations()));
    state_.counters["allocs_per_op"] =
        static_cast<double>(d.allocs) / iters;
    state_.counters["bytes_per_op"] = static_cast<double>(d.bytes) / iters;
  }
  AllocCounters(const AllocCounters&) = delete;
  AllocCounters& operator=(const AllocCounters&) = delete;

 private:
  benchmark::State& state_;
  bench::AllocSnapshot start_;
};

void BM_GlobalPlacement(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    place::GlobalPlacer placer(f.model, place::GlobalPlacerOptions{});
    benchmark::DoNotOptimize(placer.run().hpwl_um);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.nl.cell_count()));
}
BENCHMARK(BM_GlobalPlacement)->Unit(benchmark::kMillisecond);

void BM_IncrementalPlacement(benchmark::State& state) {
  Fixture& f = fixture();
  place::GlobalPlacer placer(f.model, place::GlobalPlacerOptions{});
  const auto seed = placer.run().placement;
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.run_incremental(seed).hpwl_um);
  }
}
BENCHMARK(BM_IncrementalPlacement)->Unit(benchmark::kMillisecond);

void BM_GlobalRouting(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    route::GlobalRouter router(f.nl, f.positions, f.fp.core, route::RouteOptions{});
    benchmark::DoNotOptimize(router.run().wirelength_um);
  }
}
BENCHMARK(BM_GlobalRouting)->Unit(benchmark::kMillisecond);

void BM_Sta(benchmark::State& state) {
  Fixture& f = fixture();
  sta::StaOptions options;
  options.clock_period_ps = 1800.0;
  options.cell_positions = &f.positions;
  AllocCounters allocs(state);
  for (auto _ : state) {
    sta::Sta sta(f.nl, options);
    if (!sta.try_run().has_value()) {
      state.SkipWithError("Sta::try_run failed");
      break;
    }
    benchmark::DoNotOptimize(sta.tns_ns());
  }
}
BENCHMARK(BM_Sta)->Unit(benchmark::kMillisecond);

void BM_ActivityPropagation(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sta::propagate_activity(f.nl, sta::ActivityOptions{}).size());
  }
}
BENCHMARK(BM_ActivityPropagation)->Unit(benchmark::kMillisecond);

void BM_CliqueExpand(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::clique_expand(f.nl).total_edge_weight);
  }
}
BENCHMARK(BM_CliqueExpand)->Unit(benchmark::kMillisecond);

void BM_FcClustering(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::fc_multilevel_cluster(f.nl, cluster::FcPpaInputs{},
                                       cluster::FcOptions{})
            .cluster_count);
  }
}
BENCHMARK(BM_FcClustering)->Unit(benchmark::kMillisecond);

void BM_BestChoice(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::best_choice_cluster(f.nl, cluster::BestChoiceOptions{})
            .cluster_count);
  }
}
BENCHMARK(BM_BestChoice)->Unit(benchmark::kMillisecond);

void BM_Louvain(benchmark::State& state) {
  Fixture& f = fixture();
  const cluster::Graph graph = cluster::clique_expand(f.nl);
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::louvain(graph, cluster::CommunityOptions{}).community_count);
  }
}
BENCHMARK(BM_Louvain)->Unit(benchmark::kMillisecond);

void BM_Leiden(benchmark::State& state) {
  Fixture& f = fixture();
  const cluster::Graph graph = cluster::clique_expand(f.nl);
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cluster::leiden(graph, cluster::CommunityOptions{}).community_count);
  }
}
BENCHMARK(BM_Leiden)->Unit(benchmark::kMillisecond);

void BM_HierarchyClustering(benchmark::State& state) {
  Fixture& f = fixture();
  AllocCounters allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hier::hierarchy_clustering(f.nl).cluster_count);
  }
}
BENCHMARK(BM_HierarchyClustering)->Unit(benchmark::kMillisecond);

/// One empty 4-chunk pool region: the fixed cost every parallel_for pays
/// (publish, wake, claim, join) before any work, at PPACD_THREADS lanes.
void BM_ExecRegion(benchmark::State& state) {
  AllocCounters allocs(state);
  for (auto _ : state) {
    exec::parallel_for_chunks(0, 4, 1,
                              [](std::size_t, std::size_t, std::size_t c) {
                                benchmark::DoNotOptimize(c);
                              });
  }
}
BENCHMARK(BM_ExecRegion)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// --json reporting
// ---------------------------------------------------------------------------

/// Console output as usual, plus an in-memory copy of every iteration run for
/// the JSON report.
class PerfReporter : public benchmark::ConsoleReporter {
 public:
  struct KernelRun {
    std::string name;
    double ns_per_op = 0.0;
    double allocs_per_op = 0.0;
    double bytes_per_op = 0.0;
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      KernelRun k;
      k.name = run.benchmark_name();
      k.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      k.ns_per_op = run.real_accumulated_time * 1e9 / iters;
      const auto allocs = run.counters.find("allocs_per_op");
      if (allocs != run.counters.end()) k.allocs_per_op = allocs->second;
      const auto bytes = run.counters.find("bytes_per_op");
      if (bytes != run.counters.end()) k.bytes_per_op = bytes->second;
      // Under --min-of N each repetition reports a separate iteration run
      // with the same name; keep the fastest (best-of-N filters scheduler
      // noise on loaded CI runners, where a mean would not).
      bool merged = false;
      for (KernelRun& existing : kernels_) {
        if (existing.name == k.name) {
          if (k.ns_per_op < existing.ns_per_op) existing = k;
          merged = true;
          break;
        }
      }
      if (!merged) kernels_.push_back(std::move(k));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<KernelRun>& kernels() const { return kernels_; }

 private:
  std::vector<KernelRun> kernels_;
};

bool write_perf_json(const std::string& path,
                     const std::vector<PerfReporter::KernelRun>& kernels) {
  telemetry::Json report = telemetry::Json::object();
  report.set("schema", "ppacd-bench-perf-v1");
  report.set("binary", "bench_microkernels");
  telemetry::Json list = telemetry::Json::array();
  for (const PerfReporter::KernelRun& k : kernels) {
    telemetry::Json entry = telemetry::Json::object();
    entry.set("name", k.name);
    entry.set("ns_per_op", k.ns_per_op);
    entry.set("allocs_per_op", k.allocs_per_op);
    entry.set("bytes_per_op", k.bytes_per_op);
    entry.set("iterations", k.iterations);
    list.push_back(std::move(entry));
  }
  report.set("kernels", std::move(list));
  std::ofstream out(path);
  if (!out) return false;
  out << report.dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  long repeats = 1;
  if (const char* env = std::getenv("PPACD_BENCH_REPEATS")) {
    repeats = std::strtol(env, nullptr, 10);
  }
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--min-of") == 0 && i + 1 < argc) {
      repeats = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--min-of=", 9) == 0) {
      repeats = std::strtol(argv[i] + 9, nullptr, 10);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (repeats < 1) {
    std::fprintf(stderr, "--min-of/PPACD_BENCH_REPEATS must be >= 1\n");
    return 1;
  }
  // Repetitions flow through google-benchmark's own flag; PerfReporter keeps
  // the fastest iteration run per kernel name.
  std::string repetitions_flag;
  if (repeats > 1) {
    repetitions_flag = "--benchmark_repetitions=" + std::to_string(repeats);
    args.push_back(repetitions_flag.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  PerfReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!write_perf_json(json_path, reporter.kernels())) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("perf report written to %s\n", json_path.c_str());
  }
  return 0;
}
