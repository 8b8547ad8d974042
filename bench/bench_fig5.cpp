/// \file bench_fig5.cpp
/// \brief Figure 5: hyperparameter validation -- sweep multipliers 1..6 on
/// each of alpha, beta, gamma, mu (one at a time, others at defaults) over
/// aes/jpeg/ariane; the score is post-place HPWL normalized to the default
/// setting, exactly as in Section 4.5.
#include <cstdio>

#include "common.hpp"

int main() {
  using namespace ppacd;
  const char* params[] = {"alpha", "beta", "gamma", "mu"};
  constexpr int kMaxMultiplier = 6;

  util::CsvWriter csv;
  csv.set_header({"design", "param", "multiplier", "hpwl_norm"});

  util::Table table("Figure 5: Hyperparameter validation (HPWL normalized to "
                    "default settings; mean over aes/jpeg/ariane)");
  {
    std::vector<std::string> header = {"Param"};
    for (int m = 1; m <= kMaxMultiplier; ++m) header.push_back("x" + std::to_string(m));
    table.set_header(header);
  }

  // Per-design baseline HPWL at the default hyperparameters.
  const auto specs = gen::small_design_specs();
  std::vector<double> baseline(specs.size(), 0.0);
  for (std::size_t d = 0; d < specs.size(); ++d) {
    netlist::Netlist nl = bench::make_design(specs[d]);
    flow::FlowOptions options = bench::design_flow_options(specs[d]);
    options.shape_mode = flow::ShapeMode::kUniform;  // isolate Eq. 3 effects
    const flow::FlowResult run = flow::try_run(nl, options).value();
    baseline[d] = run.place.hpwl_um;
  }

  for (const char* param : params) {
    std::vector<std::string> row = {param};
    for (int multiplier = 1; multiplier <= kMaxMultiplier; ++multiplier) {
      double norm_sum = 0.0;
      for (std::size_t d = 0; d < specs.size(); ++d) {
        netlist::Netlist nl = bench::make_design(specs[d]);
        flow::FlowOptions options = bench::design_flow_options(specs[d]);
        options.shape_mode = flow::ShapeMode::kUniform;
        if (std::string(param) == "alpha") options.fc.alpha *= multiplier;
        if (std::string(param) == "beta") options.fc.beta *= multiplier;
        if (std::string(param) == "gamma") options.fc.gamma *= multiplier;
        if (std::string(param) == "mu") options.fc.mu *= multiplier;
        const flow::FlowResult run = flow::try_run(nl, options).value();
        const double norm = run.place.hpwl_um / baseline[d];
        norm_sum += norm;
        csv.add_row({specs[d].name, param, std::to_string(multiplier),
                     bench::fmt(norm, 4)});
      }
      row.push_back(bench::fmt(norm_sum / specs.size(), 3));
    }
    table.add_row(row);
  }
  table.print();
  bench::write_results(csv, "fig5");
  std::printf("\nValues near 1.000 at multiplier 1 by construction; the paper's\n"
              "finding -- the default setting is a reasonable optimum, larger\n"
              "multipliers do not consistently help -- holds if no column is\n"
              "consistently well below 1.\n");
  return 0;
}
