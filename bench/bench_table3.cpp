/// \file bench_table3.cpp
/// \brief Table 3: post-route PPA with the OpenROAD-like flow, Default vs
/// Ours, on the four designs OpenROAD can route in the paper
/// (aes, jpeg, ariane, BlackParrot). rWL normalized to Default; WNS in ps,
/// TNS in ns, Power in W.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace ppacd;
  util::Table table("Table 3: Post-route results with the OpenROAD-like flow");
  table.set_header({"Design", "Flow", "rWL", "WNS", "TNS", "Power"});
  util::CsvWriter csv;
  csv.set_header({"design", "flow", "rwl_norm", "rwl_um", "wns_ps", "tns_ns",
                  "power_w"});

  for (const gen::DesignSpec& spec : gen::routable_design_specs()) {
    const flow::FlowOptions base = bench::design_flow_options(spec);

    flow::FlowOptions flat = base;
    flat.strategy = flow::PlaceStrategy::kFlat;
    netlist::Netlist nl_default = bench::make_design(spec);
    const flow::FlowResult def = flow::try_run(nl_default, flat).value();
    const flow::PpaOutcome def_ppa =
        flow::try_evaluate_ppa(nl_default, def.place.positions, flat).value();

    netlist::Netlist nl_ours = bench::make_design(spec);
    flow::FlowOptions ours_options = base;
    ours_options.shape_mode = flow::ShapeMode::kVpr;
    const flow::FlowResult ours = flow::try_run(nl_ours, ours_options).value();
    const flow::PpaOutcome ours_ppa =
        flow::try_evaluate_ppa(nl_ours, ours.place.positions, ours_options).value();

    auto add = [&](const char* label, const flow::PpaOutcome& ppa) {
      const double rwl_norm = ppa.rwl_um / def_ppa.rwl_um;
      table.add_row({spec.name, label, bench::fmt(rwl_norm, 2),
                     bench::fmt(ppa.wns_ps, 0), bench::fmt(ppa.tns_ns, 2),
                     bench::fmt(ppa.power_w, 4)});
      csv.add_row({spec.name, label, bench::fmt(rwl_norm, 4),
                   bench::fmt(ppa.rwl_um, 1), bench::fmt(ppa.wns_ps, 1),
                   bench::fmt(ppa.tns_ns, 3), bench::fmt(ppa.power_w, 6)});
    };
    add("Default", def_ppa);
    add("Ours", ours_ppa);
  }
  table.print();
  bench::write_results(csv, "table3");
  std::printf("\nUnits as in the paper: WNS ps, TNS ns, Power W. Expected shape:\n"
              "Ours improves WNS/TNS at roughly equal rWL and power.\n");
  return 0;
}
