/// \file bench_table5.cpp
/// \brief Table 5: PPA-awareness ablation -- Leiden vs plain multilevel FC
/// (MFC) vs Ours on aes/jpeg/ariane (OpenROAD-like flow, post-route PPA,
/// rWL normalized to the Default flow as in the paper).
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace ppacd;
  util::Table table("Table 5: Evaluation of the PPA-aware clustering framework");
  table.set_header({"Design", "Method", "rWL", "WNS", "TNS", "Power"});
  util::CsvWriter csv;
  csv.set_header({"design", "method", "rwl_norm", "wns_ps", "tns_ns", "power_w"});

  struct Method {
    const char* label;
    flow::ClusterMethod method;
    bool ppa_costs;
  };
  const Method methods[] = {
      {"Leiden", flow::ClusterMethod::kLeiden, false},
      {"MFC", flow::ClusterMethod::kMfc, false},
      {"Ours", flow::ClusterMethod::kPpaAware, true},
  };

  for (const gen::DesignSpec& spec : gen::small_design_specs()) {
    const flow::FlowOptions base = bench::design_flow_options(spec);

    flow::FlowOptions flat = base;
    flat.strategy = flow::PlaceStrategy::kFlat;
    netlist::Netlist nl_default = bench::make_design(spec);
    const flow::FlowResult def = flow::try_run(nl_default, flat).value();
    const flow::PpaOutcome def_ppa =
        flow::try_evaluate_ppa(nl_default, def.place.positions, flat).value();

    for (const Method& m : methods) {
      netlist::Netlist nl = bench::make_design(spec);
      flow::FlowOptions options = base;
      options.cluster_method = m.method;
      options.shape_mode = flow::ShapeMode::kVpr;
      const flow::FlowResult run = flow::try_run(nl, options).value();
      const flow::PpaOutcome ppa =
          flow::try_evaluate_ppa(nl, run.place.positions, options).value();
      const double rwl_norm = ppa.rwl_um / def_ppa.rwl_um;
      table.add_row({spec.name, m.label, bench::fmt(rwl_norm, 3),
                     bench::fmt(ppa.wns_ps, 0), bench::fmt(ppa.tns_ns, 2),
                     bench::fmt(ppa.power_w, 4)});
      csv.add_row({spec.name, m.label, bench::fmt(rwl_norm, 4),
                   bench::fmt(ppa.wns_ps, 1), bench::fmt(ppa.tns_ns, 3),
                   bench::fmt(ppa.power_w, 6)});
    }
  }
  table.print();
  bench::write_results(csv, "table5");
  std::printf("\nExpected shape (paper): Ours beats Leiden and MFC on rWL, WNS,\n"
              "TNS and Power, confirming the value of hierarchy + timing +\n"
              "switching awareness in the clustering objective.\n");
  return 0;
}
