// E16: sharded-execution cost model — µs/round and messages/round versus
// the domain count K on a large torus.
//
// For each K the sharded engine runs the identical diffusion instances the
// shared-memory engine runs — continuous diffusion on Real loads and
// discrete diffusion on int64 tokens, whose sweeps count StepStats in an
// integer — and the bench *verifies* bit-identity (rounds, per-round Φ and
// transferred trace, final load vector) before reporting the cost
// columns; any divergence makes the process exit nonzero, so the bench
// doubles as the determinism gate for CI (--quick keeps that gate
// cheap).  Cost columns are the modeled comm quantities (messages/round,
// boundary bytes/round, halo-wait share) plus the measured wall µs/round.
// The LB_SHARDS environment variable (comma-separated domain counts)
// restricts which K legs run — CI uses it to split the smoke across
// matrix jobs; unset means the full {1, 2, 4, 8} sweep.
#include "bench_common.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lb/core/diffusion.hpp"
#include "lb/core/engine.hpp"
#include "lb/shard/ownership.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/util/timer.hpp"
#include "lb/workload/initial.hpp"

namespace {

struct Leg {
  const char* scalar = "real";
  std::size_t domains = 1;
  std::size_t cut_edges = 0;
  lb::core::RunResult run;
  double wall_seconds = 0.0;
  std::size_t divergence = 0;  ///< mismatched fields vs the oracle
};

/// Bitwise comparison of the deterministic RunResult surface.  Returns
/// the number of mismatched fields (0 = identical).
template <class T>
std::size_t count_divergence(const lb::core::RunResult& oracle, const Leg& leg,
                             const std::vector<T>& oracle_load,
                             const std::vector<T>& leg_load) {
  std::size_t bad = 0;
  if (oracle.rounds != leg.run.rounds) ++bad;
  if (oracle.final_potential != leg.run.final_potential) ++bad;
  if (oracle.final_discrepancy != leg.run.final_discrepancy) ++bad;
  const auto& a = oracle.trace.records();
  const auto& b = leg.run.trace.records();
  if (a.size() != b.size()) {
    ++bad;
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].potential != b[i].potential ||
          a[i].transferred != b[i].transferred) {
        ++bad;
        break;
      }
    }
  }
  if (oracle_load.size() != leg_load.size()) {
    ++bad;
  } else {
    for (std::size_t i = 0; i < oracle_load.size(); ++i) {
      if (oracle_load[i] != leg_load[i]) {
        ++bad;
        break;
      }
    }
  }
  return bad;
}

void write_json(const std::string& path, std::size_t n, std::size_t rounds,
                const std::vector<Leg>& legs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"shard\", \"n\": %zu, \"rounds\": %zu,\n"
                  "  \"legs\": [\n", n, rounds);
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Leg& l = legs[i];
    const double per_round =
        l.run.rounds > 0 ? static_cast<double>(l.run.rounds) : 1.0;
    std::fprintf(
        f,
        "    {\"scalar\": \"%s\", \"domains\": %zu, \"cut_edges\": %zu, "
        "\"us_per_round\": %.3f, "
        "\"messages_per_round\": %.3f, \"bytes_per_round\": %.1f, "
        "\"halo_wait_us\": %.3f}%s\n",
        l.scalar, l.domains, l.cut_edges, l.wall_seconds * 1e6 / per_round,
        static_cast<double>(l.run.comm.messages) / per_round,
        static_cast<double>(l.run.comm.boundary_bytes) / per_round,
        l.run.comm.halo_wait_us, i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void write_trace_csv(const std::string& dir, std::size_t domains,
                     const lb::core::RunResult& run) {
  const std::string path =
      dir + "/ablation_shard_k" + std::to_string(domains) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const std::string csv = run.trace.to_csv();
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
}

/// Domain counts to bench: LB_SHARDS="1,4"-style env override, or the
/// full default sweep.
std::vector<std::size_t> shard_counts() {
  const std::vector<std::size_t> all{1, 2, 4, 8};
  const char* env = std::getenv("LB_SHARDS");
  if (env == nullptr || *env == '\0') return all;
  std::vector<std::size_t> ks;
  std::size_t value = 0;
  bool in_number = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      value = value * 10 + static_cast<std::size_t>(*p - '0');
      in_number = true;
    } else {
      if (in_number && value > 0) ks.push_back(value);
      value = 0;
      in_number = false;
      if (*p == '\0') break;
    }
  }
  return ks.empty() ? all : ks;
}

}  // namespace

int main(int argc, char** argv) {
  lb::util::Options opts(
      "E16: sharded K-domain execution — comm cost versus domain count, "
      "with bit-identity to the shared-memory oracle enforced");
  opts.add_int("n", 65536, "torus node count (rounded to a square side)")
      .add_int("rounds", 50, "rounds per leg")
      .add_int("seed", 42, "engine RNG seed")
      .add_flag("quick", "CI smoke: 4096 nodes, 15 rounds")
      .add_flag("csv", "emit CSV instead of a table")
      .add_string("json", "", "write machine-readable summary JSON here")
      .add_string("ablation-dir", "",
                  "write ablation_shard_k{1,4}.csv trace pair here");
  opts.parse(argc, argv);

  const bool quick = opts.get_flag("quick");
  const std::size_t n = quick ? 4096 : static_cast<std::size_t>(opts.get_int("n"));
  const std::size_t rounds =
      quick ? 15 : static_cast<std::size_t>(opts.get_int("rounds"));
  const std::uint64_t seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  const bool csv = opts.get_flag("csv");

  lb::util::Rng rng(seed);
  const lb::graph::Graph g = lb::graph::make_named("torus2d", n, rng);
  const auto real_load0 = lb::workload::spike<double>(
      g.num_nodes(), 1000.0 * static_cast<double>(g.num_nodes()));
  const auto token_load0 = lb::workload::uniform_random<std::int64_t>(
      g.num_nodes(), 1000 * static_cast<std::int64_t>(g.num_nodes()), rng);

  if (!csv) {
    lb::bench::banner(
        "E16: sharded ownership/halo execution",
        "K-domain halo exchange is bit-identical to the shared-memory "
        "engine; only the comm bill varies with K",
        seed);
    std::printf("graph: %s (%zu nodes, %zu edges)\n\n", g.name().c_str(),
                g.num_nodes(), g.num_edges());
  }

  lb::core::EngineConfig cfg;
  cfg.max_rounds = rounds;
  cfg.target_potential = 0.0;
  cfg.record_trace = true;
  cfg.seed = seed;

  std::vector<Leg> legs;
  std::size_t divergent = 0;
  // The shared-memory oracle of one scalar, then its sharded leg at each K.
  const auto run_legs = [&](const char* scalar, const auto& make, const auto& load0) {
    lb::core::RunResult oracle;
    auto oracle_load = load0;
    {
      auto alg = make();
      oracle = lb::core::run_static(*alg, g, oracle_load, cfg);
    }
    for (const std::size_t k : shard_counts()) {
      Leg leg;
      leg.scalar = scalar;
      leg.domains = k;
      lb::shard::ShardConfig shard;
      shard.domains = k;
      leg.cut_edges =
          lb::shard::OwnershipMap::build(g, k, shard.policy).cut_edges();
      auto alg = make();
      auto load = load0;
      const lb::util::Stopwatch watch;
      leg.run = lb::shard::run_static(*alg, g, load, cfg, shard);
      leg.wall_seconds = watch.elapsed_seconds();
      leg.divergence = count_divergence(oracle, leg, oracle_load, load);
      if (leg.divergence != 0) {
        std::fprintf(stderr, "DIVERGENCE: %s K=%zu differs from the shared-memory "
                             "oracle (%zu mismatched fields)\n", scalar, k, leg.divergence);
        divergent += leg.divergence;
      }
      legs.push_back(std::move(leg));
    }
  };
  run_legs("real", [] { return lb::core::make_diffusion_continuous(); }, real_load0);
  run_legs("tokens", [] { return lb::core::make_diffusion_discrete(); }, token_load0);

  lb::util::Table table({"scalar", "domains", "cut_edges", "us/round", "messages/round",
                         "bytes/round", "halo_wait_us", "identical"});
  for (const Leg& l : legs) {
    const double per_round =
        l.run.rounds > 0 ? static_cast<double>(l.run.rounds) : 1.0;
    table.row()
        .add(l.scalar)
        .add(static_cast<std::int64_t>(l.domains))
        .add(static_cast<std::int64_t>(l.cut_edges))
        .add(l.wall_seconds * 1e6 / per_round, 3)
        .add(static_cast<double>(l.run.comm.messages) / per_round, 3)
        .add(static_cast<double>(l.run.comm.boundary_bytes) / per_round, 1)
        .add(l.run.comm.halo_wait_us, 3)
        .add(l.divergence == 0 ? 1 : 0);
  }
  lb::bench::emit(table, "sharded execution cost vs K (bit-identity enforced)",
                  csv);

  if (!opts.get_string("json").empty()) {
    write_json(opts.get_string("json"), g.num_nodes(), rounds, legs);
  }
  if (!opts.get_string("ablation-dir").empty()) {
    for (const Leg& l : legs) {
      if (std::string(l.scalar) == "real" && (l.domains == 1 || l.domains == 4)) {
        write_trace_csv(opts.get_string("ablation-dir"), l.domains, l.run);
      }
    }
  }

  if (divergent != 0) {
    std::fprintf(stderr, "bench_shard: FAILED — sharded runs diverged from "
                         "the shared-memory oracle\n");
    return 1;
  }
  return 0;
}
