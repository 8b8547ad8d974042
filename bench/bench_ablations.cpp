/// \file bench_ablations.cpp
/// \brief Ablations of the design choices DESIGN.md section 5 calls out:
/// hierarchy grouping constraints, timing cost, switching cost, the
/// footnote-2 singleton policy, seed scattering, region-release schedule,
/// and the optional detailed-placement stage. Run on aes/jpeg/ariane with
/// the OpenROAD-like flow; rWL normalized to the full "Ours" configuration.
#include <cstdio>
#include <functional>

#include "common.hpp"

int main() {
  using namespace ppacd;

  struct Variant {
    const char* label;
    std::function<void(flow::FlowOptions&)> tweak;
  };
  const Variant variants[] = {
      {"Ours (full)", [](flow::FlowOptions&) {}},
      {"no grouping", [](flow::FlowOptions& o) { o.fc.use_grouping = false; }},
      {"no timing", [](flow::FlowOptions& o) { o.fc.use_timing = false; }},
      {"no switching", [](flow::FlowOptions& o) { o.fc.use_switching = false; }},
      {"merge singletons",
       [](flow::FlowOptions& o) { o.fc.merge_singletons = true; }},
      {"center seeding", [](flow::FlowOptions& o) { o.scatter_seed = false; }},
      {"+detailed place",
       [](flow::FlowOptions& o) { o.detailed_placement = true; }},
      {"+timing opt",
       [](flow::FlowOptions& o) { o.timing_optimization = true; }},
  };

  util::Table table("Ablations of the clustering-driven flow "
                    "(rWL/HPWL normalized to 'Ours (full)' per design)");
  table.set_header({"Design", "Variant", "HPWL", "rWL", "WNS", "TNS", "CPU(s)"});
  util::CsvWriter csv;
  csv.set_header({"design", "variant", "hpwl_norm", "rwl_norm", "wns_ps",
                  "tns_ns", "cpu_s"});

  for (const gen::DesignSpec& spec : gen::small_design_specs()) {
    double base_hpwl = 0.0;
    double base_rwl = 0.0;
    for (const Variant& variant : variants) {
      netlist::Netlist nl = bench::make_design(spec);
      flow::FlowOptions options = bench::design_flow_options(spec);
      options.shape_mode = flow::ShapeMode::kVpr;
      variant.tweak(options);
      const flow::FlowResult run = flow::try_run(nl, options).value();
      const flow::PpaOutcome ppa =
          flow::try_evaluate_ppa(nl, run.place.positions, options).value();
      if (base_hpwl == 0.0) {
        base_hpwl = run.place.hpwl_um;
        base_rwl = ppa.rwl_um;
      }
      const double cpu =
          run.place.clustering_seconds + run.place.placement_seconds;
      table.add_row({spec.name, variant.label,
                     bench::fmt(run.place.hpwl_um / base_hpwl, 3),
                     bench::fmt(ppa.rwl_um / base_rwl, 3),
                     bench::fmt(ppa.wns_ps, 0), bench::fmt(ppa.tns_ns, 2),
                     bench::fmt(cpu, 2)});
      csv.add_row({spec.name, variant.label,
                   bench::fmt(run.place.hpwl_um / base_hpwl, 4),
                   bench::fmt(ppa.rwl_um / base_rwl, 4),
                   bench::fmt(ppa.wns_ps, 1), bench::fmt(ppa.tns_ns, 3),
                   bench::fmt(cpu, 3)});
    }
  }
  table.print();
  bench::write_results(csv, "ablations");
  std::printf("\nExpected directions: dropping grouping or timing degrades\n"
              "HPWL/TNS; merging singletons degrades PPA (paper footnote 2);\n"
              "center seeding slows convergence (worse HPWL at equal budget);\n"
              "detailed placement only improves.\n");
  return 0;
}
