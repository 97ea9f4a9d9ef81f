// E13 (scaling "figure"): rounds-to-balance versus n per topology follow
// the spectral prediction T ≈ 4δ·ln(1/ε)/λ2 — Θ(n²·ln(1/ε)) on paths and
// cycles, Θ(n·ln(1/ε)) on 2D tori, Θ(ln(1/ε)) on hypercubes and expanders.
//
// Printed as a series (one row per (topology, n)) — the data behind the
// log-log convergence figure.
#include "bench_common.hpp"

#include <cmath>

#include "lb/core/bounds.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/core/load.hpp"
#include "lb/linalg/spectral.hpp"
#include "lb/util/stats.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/initial.hpp"

int main(int argc, char** argv) {
  lb::util::Options opts(
      "E13: rounds-to-balance vs n per topology (the scaling figure): measured "
      "rounds track 4*delta*ln(1/eps)/lambda2");
  opts.add_double("eps", 1e-4, "target potential fraction")
      .add_int("seed", 42, "RNG seed")
      .add_flag("csv", "emit CSV instead of a table");
  opts.parse(argc, argv);

  const double eps = opts.get_double("eps");
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed"));

  lb::bench::banner("E13: topology scaling figure",
                    "measured rounds follow the spectral prediction: ~n^2 on "
                    "path/cycle, ~n on torus2d, ~const on hypercube/expander",
                    seed);

  lb::util::Table table({"topology", "n", "lambda2", "T bound",
                         "T measured", "meas/bound", "us/round", "step us/rd",
                         "metrics us/rd"});

  struct Series {
    std::string family;
    std::vector<std::size_t> sizes;
  };
  const std::vector<Series> series = {
      {"path", {16, 32, 64, 128, 256}},
      {"cycle", {16, 32, 64, 128, 256}},
      {"torus2d", {16, 64, 256, 1024}},
      {"hypercube", {16, 64, 256, 1024}},
      {"regular", {16, 64, 256, 1024}},
      {"debruijn", {16, 64, 256, 1024}},
  };

  // For the per-family growth-exponent summary.
  lb::util::Table fits({"topology", "fitted exponent (T ~ n^e)", "r^2",
                        "spectral prediction"});

  for (const auto& s : series) {
    std::vector<double> log_n, log_t;
    for (std::size_t n : s.sizes) {
      lb::util::Rng rng(seed);
      const auto g = lb::graph::make_named(s.family, n, rng);
      const double l2 = lb::linalg::lambda2(g, /*dense_cutoff=*/512);
      const double bound = lb::core::bounds::theorem4_rounds(l2, g.max_degree(), eps);

      auto load = lb::workload::spike<double>(
          g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()));
      const double phi0 = lb::core::potential(load);
      lb::core::ContinuousDiffusion alg;
      lb::core::EngineConfig cfg;
      cfg.max_rounds = static_cast<std::size_t>(std::ceil(bound)) + 10;
      cfg.target_potential = eps * phi0;
      cfg.record_trace = false;
      cfg.stall_rounds = 0;
      const lb::util::Stopwatch watch;
      const auto result = lb::core::run_static(alg, g, load, cfg);
      const double rounds_d =
          result.rounds == 0 ? 1.0 : static_cast<double>(result.rounds);
      const double us_per_round =
          result.rounds == 0 ? 0.0 : watch.elapsed_seconds() * 1e6 / rounds_d;

      table.row()
          .add(g.name())
          .add(static_cast<std::int64_t>(g.num_nodes()))
          .add(l2, 4)
          .add(bound, 5)
          .add(static_cast<std::int64_t>(result.rounds))
          .add(static_cast<double>(result.rounds) / bound, 3)
          .add(us_per_round, 2)
          .add(result.step_seconds * 1e6 / rounds_d, 2)
          .add(result.metrics_seconds * 1e6 / rounds_d, 2);
      if (result.rounds > 0) {
        log_n.push_back(std::log(static_cast<double>(g.num_nodes())));
        log_t.push_back(std::log(static_cast<double>(result.rounds)));
      }
    }
    if (log_n.size() >= 2) {
      const auto fit = lb::util::linear_fit(log_n, log_t);
      const char* prediction =
          (s.family == "path" || s.family == "cycle") ? "2 (lambda2 ~ 1/n^2)"
          : (s.family == "torus2d")                   ? "1 (lambda2 ~ 1/n)"
                                                      : "0 (lambda2 ~ const)";
      fits.row().add(s.family).add(fit.slope, 3).add(fit.r_squared, 3).add(prediction);
    }
  }

  lb::bench::emit(table, "Rounds to eps-balance per (topology, n)",
                  opts.get_flag("csv"));
  lb::bench::emit(fits, "Log-log growth exponents (measured vs spectral prediction)",
                  opts.get_flag("csv"));
  return 0;
}
