// perfbench: the repository benchmark binary.  perfbench/run.py builds it
// and runs it as
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints notes, one "metric <name> <value> <unit>" line per metric,
// and as its last line one JSON object {correct, attempted, failed,
// metrics}.  It exits 1 when any operation failed its fingerprint or
// replay check.  `perfbench --self-test` checks that those checks catch
// what they must.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/workload/initial.hpp"
#include "replay.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seconds S [--seed N] [--trace 0|1]\n"
               "                 [--trace-dir DIR] [--git-describe STR]\n"
               "       perfbench --self-test\n"
               "workloads:",
               why.c_str());
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_outcome(Outcome& out) {
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              out.correct ? "true" : "false", std::max<std::size_t>(1, out.attempted),
              out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                json_escape(m.name).c_str(), std::isfinite(m.value) ? m.value : 0.0,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Self-tests
// ---------------------------------------------------------------------------

int g_self_test_failures = 0;

void expect(bool ok, const std::string& name) {
  std::printf("self-test %-44s %s\n", name.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++g_self_test_failures;
}

/// A perturbed load or Φ bit must read as a fingerprint mismatch.
void self_test_fingerprints() {
  const lb::graph::Graph g = lb::graph::make_torus2d(16, 16);
  lb::util::Rng rng(7);
  std::vector<double> load = lb::workload::bimodal<double>(g.num_nodes(), 25600.0, rng);
  lb::core::EngineConfig cfg;
  cfg.max_rounds = 5;
  cfg.stall_rounds = 0;
  cfg.target_potential = 0.0;
  lb::core::DiffusionBalancer<double> balancer;
  const lb::core::RunResult r = lb::core::run_static(balancer, g, load, cfg);
  const Fingerprint base = fingerprint(r, &load);
  expect(base == fingerprint(r, &load), "fingerprint is stable");

  std::vector<double> flipped = load;
  std::uint64_t bits = bits_of(flipped[7]) ^ 1u;
  std::memcpy(&flipped[7], &bits, sizeof bits);
  expect(!(fingerprint(r, &flipped) == base), "perturbed load bit is a mismatch");

  lb::core::RunResult phi = r;
  bits = bits_of(phi.final_potential) ^ 1u;
  std::memcpy(&phi.final_potential, &bits, sizeof bits);
  expect(!(fingerprint(phi, &load) == base), "perturbed final-Phi bit is a mismatch");

  lb::core::RunResult disc = r;
  bits = bits_of(disc.final_discrepancy) ^ 1u;
  std::memcpy(&disc.final_discrepancy, &bits, sizeof bits);
  expect(!(fingerprint(disc, &load) == base), "perturbed discrepancy bit is a mismatch");

  lb::core::RunResult rounds = r;
  ++rounds.rounds;
  expect(!(fingerprint(rounds, &load) == base), "different round count is a mismatch");

  std::vector<Fingerprint> cells(3, base);
  const Fingerprint folded = combine(cells);
  cells[1].phi_bits ^= 1u;
  expect(!(combine(cells) == folded), "perturbed cell changes the campaign fold");
}

/// The sharded replay must pass on an open instance, and a replay that
/// skips one stream delta must be caught.
void self_test_replay() {
  const lb::graph::Graph g = lb::graph::make_torus2d(24, 24);
  lb::util::Rng rng(11);
  const std::vector<std::int64_t> load0 =
      lb::workload::uniform_random<std::int64_t>(g.num_nodes(), 576000, rng);
  lb::workload::StreamSpec spec;
  spec.kind = lb::workload::StreamKind::kBursty;
  spec.arrival_rate = 16.0;
  spec.departure_rate = 16.0;
  spec.quantum = 50.0;
  spec.burst_prob = 0.3;
  auto stream = lb::workload::make_stream<std::int64_t>(spec, g.num_nodes(), 5);
  lb::util::ThreadPool pool(1);
  lb::core::EngineConfig cfg;
  cfg.max_rounds = 12;
  cfg.stall_rounds = 0;
  cfg.target_potential = 0.0;
  cfg.pool = &pool;
  cfg.stream = stream.get();
  lb::shard::ShardConfig shard;
  shard.domains = 4;

  std::vector<std::int64_t> ref_load = load0;
  lb::core::DiffusionBalancer<std::int64_t> ref_balancer;
  const lb::core::RunResult reference =
      lb::shard::run_static(ref_balancer, g, ref_load, cfg, shard);

  const auto replay_with = [&](const ReplayFaults& faults, std::vector<std::int64_t>& load) {
    load = load0;
    lb::core::DiffusionBalancer<std::int64_t> balancer;
    auto seq = lb::graph::make_static_view(g);
    ShardExecutor<std::int64_t> exec(shard.domains, shard.policy);
    const Replay replay = replay_run(balancer, *seq, load, cfg, exec, nullptr, faults);
    return verify_replay(reference, replay, &ref_load, &load);
  };
  std::vector<std::int64_t> load;
  const ReplayVerdict clean = replay_with({}, load);
  expect(clean.ok() && reference.comm.messages > 0, "faithful sharded replay passes all checks");
  ReplayFaults skip;
  skip.skip_delta_round = 3;
  const ReplayVerdict skipped = replay_with(skip, load);
  expect(!skipped.stream_ok, "replay skipping a stream delta is caught");
  expect(!skipped.ok(), "skipped delta fails the traced run");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else if (arg == "--git-describe") {
        opt.git_describe = value();
      } else if (arg == "--small") {
        opt.small = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }

  if (self_test) {
    self_test_fingerprints();
    self_test_replay();
    return g_self_test_failures == 0 ? 0 : 1;
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == opt.workload;
  if (!known) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be given and positive");

  Outcome out;
  try {
    out = run_workload(opt);
  } catch (const std::exception& e) {
    out.attempted = std::max<std::size_t>(1, out.attempted);
    out.fail(std::string("workload threw: ") + e.what());
  }
  std::printf("# machine nproc=%zu llc_bytes=%zu build_type=%s git=%s\n", hardware_workers(),
              llc_bytes(), PERFBENCH_BUILD_TYPE, opt.git_describe.c_str());
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  print_outcome(out);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
