// The three benchmark workloads.  Each builds its inputs from --seed, then
// either times its public entry point in interleaved pool-1 / pool-hw
// legs (the end-to-end run) or replays and probes it layer by layer (the
// traced run).
//
//   torus1m-closed          core::run_static, continuous diffusion on a
//                           1024x1024 torus, closed system, fixed budget.
//   torus256k-open-sharded  shard::run_static (K = 4), discrete diffusion
//                           on a 512x512 torus under a bursty stream.
//   campaign-dynamic        exp::CampaignRunner::run (cached mode) over four
//                           256-node bases x three scenarios x five
//                           balancers x both scalars x six replicates.
#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "bench.hpp"
#include "lb/core/diffusion.hpp"
#include "lb/core/dimension_exchange.hpp"
#include "lb/core/ops.hpp"
#include "lb/core/random_partner.hpp"
#include "lb/core/sos.hpp"
#include "lb/exp/campaign.hpp"
#include "lb/graph/generators.hpp"
#include "lb/shard/sharded_engine.hpp"
#include "lb/workload/initial.hpp"
#include "probes.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using lb::util::ThreadPool;

/// Independent seeds for a workload's inputs, derived from --seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  lb::util::SplitMix64 sm(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  sm.next();
  return sm.next();
}

constexpr std::size_t kSetupReps = 9;
constexpr std::size_t kMaxSetupReps = 401;
constexpr double kSetupSeconds = 2.0;

/// The open workload's traffic: Pareto bursts on Poisson churn.
lb::workload::StreamSpec open_stream_spec() {
  lb::workload::StreamSpec spec;
  spec.kind = lb::workload::StreamKind::kBursty;
  spec.arrival_rate = 64.0;
  spec.departure_rate = 64.0;
  spec.quantum = 50.0;
  spec.burst_prob = 0.1;
  return spec;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_current_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// A single-worker pool and a pool of nproc workers.  Only one of them
/// runs at a time; the other's threads stay parked.  Every thread is
/// pinned to one CPU so the scheduler cannot migrate a leg mid-call.  The
/// pool-hw workers take one CPU each.  The main thread (which runs pool-1
/// kernels inline) and the pool-1 worker share one CPU, which
/// place_single() moves from call to call.
struct Pools {
  ThreadPool one{1};
  ThreadPool hw{hardware_workers()};
  std::vector<int> cpus = allowed_cpus();

  /// Pin the pool-1 leg to the k-th allowed CPU (mod their count).
  void place_single(std::size_t k) {
    if (cpus.empty()) return;
    const int cpu = cpus[k % cpus.size()];
    pin_current_thread(cpu);
    one.submit([cpu] { pin_current_thread(cpu); });
    one.wait_idle();
  }

  Pools() {
    if (cpus.empty()) return;
    place_single(cpus.size() - 1);
    // The barrier holds each task until every worker has taken one, so
    // each worker pins itself exactly once.
    std::barrier sync(static_cast<std::ptrdiff_t>(hw.size()));
    std::atomic<std::size_t> next{0};
    for (std::size_t i = 0; i < hw.size(); ++i) {
      hw.submit([&] {
        sync.arrive_and_wait();
        pin_current_thread(cpus[next.fetch_add(1) % cpus.size()]);
      });
    }
    hw.wait_idle();
  }
};

/// One timed call of a workload's entry point.
struct Call {
  double seconds = 0.0;
  std::size_t rounds = 0;
  long long allocs = 0;
  std::vector<Fingerprint> fps;  ///< one per operation
};

std::string join_samples(const std::vector<double>& samples) {
  std::string out;
  char buf[32];
  for (double x : samples) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    out += buf;
  }
  return out;
}

/// The quantile of per-call round times that round_us reports: the
/// fastest call, as bench_scale's best-of-reps.  On a shared machine, slow
/// stretches of seconds to minutes come and go, and not on every CPU at
/// once; the fastest call tracks the program, while the median tracks how
/// much of the run those stretches covered.  IQR/median over ten seeds of
/// 30 s runs per workload on a 4-core KVM guest: 0.05-0.19 for the
/// fastest call, 0.07-0.26 for the 10th percentile, 0.06-0.23 for the
/// median.  The pool-1 leg moves to the next CPU on every call, so one
/// slow CPU cannot slow every pool-1 call of a run.
constexpr double kRoundQuantile = 0.0;

/// Interleave pool-1 and pool-hw calls (alternating which goes first)
/// until `seconds` have passed, checking every operation's fingerprint
/// against the first call's, and report the end-to-end round metrics.
template <class CallFn>
std::vector<Fingerprint> run_legs(const Options& opt, Pools& pools, Outcome& out,
                                  CallFn&& call) {
  std::vector<Fingerprint> reference;
  std::vector<double> us_one, us_hw, allocs;
  const std::int64_t start = now_ns();
  for (std::size_t iter = 0; iter < 2 || seconds_since(start) < opt.seconds; ++iter) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool single = (leg == 0) == (iter % 2 == 0);
      Call c;
      if (single) pools.place_single(us_one.size());
      try {
        c = call(single ? pools.one : pools.hw, single);
      } catch (const std::exception& e) {
        ++out.attempted;
        out.fail(std::string("timed call threw: ") + e.what());
        continue;
      }
      out.attempted += c.fps.size();
      if (reference.empty()) reference = c.fps;
      if (c.fps.size() != reference.size()) {
        out.fail("operation count differs between calls");
        continue;
      }
      for (std::size_t i = 0; i < c.fps.size(); ++i) {
        if (!(c.fps[i] == reference[i])) {
          out.fail(std::string("fingerprint mismatch on the ") +
                   (single ? "pool-1" : "pool-hw") + " leg, operation " +
                   std::to_string(i) + ": " + c.fps[i].str() + " vs " +
                   reference[i].str());
        }
      }
      const double per_round = 1.0 / static_cast<double>(std::max<std::size_t>(1, c.rounds));
      (single ? us_one : us_hw).push_back(c.seconds * 1e6 * per_round);
      if (single) allocs.push_back(static_cast<double>(c.allocs) * per_round);
    }
  }
  out.add("round_us.pool1", quantile(us_one, kRoundQuantile), "us");
  out.add("round_us.poolhw", quantile(us_hw, kRoundQuantile), "us");
  out.add("allocs_per_round", median(allocs), "count");
  out.note("legs: " + std::to_string(us_one.size()) + " pool-1 and " +
           std::to_string(us_hw.size()) + " pool-hw calls (pool-hw = " +
           std::to_string(pools.hw.size()) + " workers); round_us.pool1 p50/p90 " +
           std::to_string(median(us_one)) + "/" + std::to_string(quantile(us_one, 0.9)) +
           ", round_us.poolhw p50/p90 " + std::to_string(median(us_hw)) + "/" +
           std::to_string(quantile(us_hw, 0.9)));
  out.note("round_us.pool1 samples:" + join_samples(us_one));
  out.note("round_us.poolhw samples:" + join_samples(us_hw));
  return reference;
}

/// Compare the run's fingerprint with the one pinned for the default seed.
void check_expected(const Options& opt, const Fingerprint& fp, Outcome& out) {
  out.note("fingerprint " + opt.workload + " " + fp.str());
  if (opt.seed != kDefaultSeed || opt.small) return;
  const std::string expected = expected_fingerprint(opt.workload);
  if (expected.empty()) {
    out.fail("no expected fingerprint for " + opt.workload + " in " PERFBENCH_EXPECTED_FILE);
  } else if (expected != fp.str()) {
    out.fail("fingerprint differs from the expected default-seed value " + expected);
  } else {
    out.note("fingerprint matches the expected default-seed value");
  }
}

/// One set-up sample as a fresh process pays it: a forked child builds
/// the instance, from the same allocator state every time and on freshly
/// faulted pages, and sends the build time back through a pipe.
template <class Make>
double setup_sample(Make& make) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up sample: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("set-up sample: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    const std::int64_t start = now_ns();
    [[maybe_unused]] const auto instance = make();
    const double seconds = seconds_since(start);
    const bool sent = write(fds[1], &seconds, sizeof seconds) == sizeof seconds;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const bool got = read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up sample: the child failed");
  }
  return seconds;
}

/// The end-to-end run's setup_s is the fastest of many forked set-up
/// samples (at least kSetupReps, and for at least kSetupSeconds): other
/// processes on a shared machine only ever add time, and across runs the
/// fastest sample varies far less than the median.  Then the instance
/// this process uses is built.  Runs before any thread starts, because
/// fork copies only the calling thread.
template <class Make>
auto timed_setup(const Options& opt, Outcome& out, Make&& make) {
  if (!opt.trace) {
    std::vector<double> seconds;
    const std::int64_t begin = now_ns();
    while (seconds.size() < kSetupReps ||
           (seconds_since(begin) < kSetupSeconds && seconds.size() < kMaxSetupReps)) {
      seconds.push_back(setup_sample(make));
    }
    out.add("setup_s", quantile(seconds, 0.0), "s");
    out.note("setup_s: fastest of " + std::to_string(seconds.size()) +
             " forked set-ups; median " + std::to_string(median(seconds)) + " s, p75 " +
             std::to_string(quantile(seconds, 0.75)) + " s");
  }
  return make();
}

/// Tracing overhead of one replay (s): the median, over pairs run back to
/// back after a warm-up, of a traced replay's wall time minus an untraced
/// one's on the same inputs.  `replay(tracer)` runs one replay and
/// returns its wall time.
template <class ReplayFn>
double tracing_overhead_s(ReplayFn&& replay) {
  replay(nullptr);  // first-touch pages and cold caches
  std::vector<double> extra;
  for (int rep = 0; rep < 5; ++rep) {
    const double untraced = replay(nullptr);
    Tracer discarded;
    extra.push_back(replay(&discarded) - untraced);
  }
  return median(extra);
}

/// Report the replay-derived metrics every workload has, and the three
/// traffic checks.  `step_us` are the per-round step times, `overhead_s`
/// the tracing overhead of the replayed rounds.
void report_replay(const Tracer& tr, const ReplayVerdict& v,
                   const std::vector<ReplayRound>& replayed, const std::vector<double>& step_us,
                   double overhead_s, std::uint64_t messages, std::size_t events,
                   Outcome& out) {
  const std::size_t rounds = replayed.size();
  out.add("core.step_us.p50", quantile(step_us, 0.5), "us");
  out.add("core.step_us.p90", quantile(step_us, 0.9), "us");
  out.add("core.engine_overhead_us", mean(tr.self_us("round")), "us");
  const std::vector<double> frame_us = tr.durations_us("graph.frame");
  out.add("graph.frame_us.p50", quantile(frame_us, 0.5), "us");
  out.add("graph.frame_us.p90", quantile(frame_us, 0.9), "us");
  out.add("trace.overhead_us",
          overhead_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, rounds)), "us");
  double active = 0.0, links = 0.0;
  for (const ReplayRound& r : replayed) {
    active += static_cast<double>(r.active_edges);
    links += static_cast<double>(r.links);
  }
  out.add("core.active_edge_frac", links > 0.0 ? active / links : 0.0, "ratio");
  out.note(std::string("verify round_replay ") + (v.rounds_ok ? "pass" : "FAIL") + " (" +
           std::to_string(rounds) + " rounds)");
  out.note(std::string("verify comm_replay ") + (v.comm_ok ? "pass" : "FAIL") + " (" +
           std::to_string(messages) + " messages)");
  out.note(std::string("verify stream_replay ") + (v.stream_ok ? "pass" : "FAIL") + " (" +
           std::to_string(events) + " delta entries)");
  for (const std::string& why : v.why) out.fail("replay: " + why);
  out.add("verify.round_replay_rounds", v.rounds_ok ? static_cast<double>(rounds) : 0.0,
          "count");
}

/// Write every span of the traced run, grouped by the part that made it.
void write_traces(const Options& opt, const Traces& parts, Outcome& out) {
  std::size_t spans = 0;
  for (const auto& [name, tr] : parts) spans += tr.spans().size();
  out.add("trace.spans", static_cast<double>(spans), "count");
  const std::string path =
      opt.trace_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  if (write_trace_file(path, opt.workload, parts)) {
    out.note("spans written to " + path);
  } else {
    out.fail("could not write " + path);
  }
}

// ---------------------------------------------------------------------------
// torus1m-closed and torus256k-open-sharded
// ---------------------------------------------------------------------------

template <class T>
struct TorusInstance {
  std::size_t side = 0;
  bool sharded = false;
  lb::graph::Graph graph;
  std::vector<T> load0;
  std::unique_ptr<lb::workload::Stream<T>> stream;  ///< null for the closed system
  lb::core::EngineConfig config;

  /// Every run builds a fresh balancer, so every run starts from the same state.
  std::unique_ptr<lb::core::Balancer<T>> make_balancer() const {
    if constexpr (std::is_integral_v<T>) {
      return lb::core::make_diffusion_discrete();
    } else {
      return lb::core::make_diffusion_continuous();
    }
  }

  /// The workload's public entry point.
  lb::core::RunResult run(lb::core::Balancer<T>& balancer, std::vector<T>& load,
                          const lb::core::EngineConfig& cfg) const {
    if (!sharded) return lb::core::run_static(balancer, graph, load, cfg);
    lb::shard::ShardConfig shard;
    shard.domains = kDomains;
    shard.policy = kPartitionPolicy;
    return lb::shard::run_static(balancer, graph, load, cfg, shard);
  }
};

template <class T>
std::unique_ptr<TorusInstance<T>> make_torus(const Options& opt, bool open) {
  auto inst = std::make_unique<TorusInstance<T>>();
  inst->sharded = open;
  inst->side = open ? (opt.small ? 64 : 512) : (opt.small ? 64 : 1024);
  inst->graph = lb::graph::make_torus2d(inst->side, inst->side);
  const std::size_t n = inst->graph.num_nodes();
  lb::util::Rng rng(derive(opt.seed, 1));
  const T total = static_cast<T>(1000.0 * static_cast<double>(n));
  inst->load0 = open ? lb::workload::uniform_random<T>(n, total, rng)
                     : lb::workload::bimodal<T>(n, total, rng);
  lb::core::EngineConfig& cfg = inst->config;
  cfg.max_rounds = open ? (opt.small ? 8 : 48) : (opt.small ? 6 : 24);
  cfg.target_potential = 0.0;
  cfg.stall_rounds = 0;
  cfg.record_trace = false;
  cfg.seed = derive(opt.seed, 2);
  if (open) {
    inst->stream = lb::workload::make_stream<T>(open_stream_spec(), n, derive(opt.seed, 3));
    cfg.stream = inst->stream.get();
  }
  return inst;
}

template <class T>
Outcome run_torus(const Options& opt, bool open) {
  Outcome out;
  auto inst = timed_setup(opt, out, [&] { return make_torus<T>(opt, open); });
  Pools pools;

  if (!opt.trace) {
    const auto reference = run_legs(opt, pools, out, [&](ThreadPool& pool, bool count) {
      std::vector<T> load = inst->load0;
      auto balancer = inst->make_balancer();
      lb::core::EngineConfig cfg = inst->config;
      cfg.pool = &pool;
      Call c;
      std::optional<AllocScope> allocs;
      if (count) allocs.emplace();
      const std::int64_t start = now_ns();
      const lb::core::RunResult r = inst->run(*balancer, load, cfg);
      c.seconds = seconds_since(start);
      if (allocs) c.allocs = allocs->count();
      allocs.reset();
      c.rounds = r.rounds;
      c.fps.push_back(fingerprint(r, &load));
      return c;
    });
    if (!reference.empty()) check_expected(opt, reference[0], out);
    out.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced run: the library's own result at pool 1, the replay untraced
  // and traced, then the probes of the layers this workload enters.
  lb::core::EngineConfig cfg = inst->config;
  cfg.pool = &pools.one;
  cfg.record_trace = true;  // per-round Φ and step times to verify against
  const auto library_call = [&](bool sharded, std::vector<T>& load, double& wall) {
    lb::core::RunResult r;
    for (int rep = 0; rep < 2; ++rep) {  // the first call warms caches and pages
      load = inst->load0;
      auto balancer = inst->make_balancer();
      const std::int64_t start = now_ns();
      r = sharded ? inst->run(*balancer, load, cfg)
                  : lb::core::run_static(*balancer, inst->graph, load, cfg);
      wall = seconds_since(start);
    }
    return r;
  };
  std::vector<T> ref_load;
  double ref_wall = 0.0;
  const lb::core::RunResult reference = library_call(open, ref_load, ref_wall);

  auto seq = lb::graph::make_static_view(inst->graph);
  const auto replay_once = [&](Tracer* tr, std::vector<T>& load) {
    load = inst->load0;
    auto balancer = inst->make_balancer();
    if (open) {
      ShardExecutor<T> exec(kDomains, kPartitionPolicy);
      return replay_run(*balancer, *seq, load, cfg, exec, tr);
    }
    SharedExecutor<T> exec;
    return replay_run(*balancer, *seq, load, cfg, exec, tr);
  };
  std::vector<T> load;
  const double overhead_s =
      tracing_overhead_s([&](Tracer* t) { return replay_once(t, load).wall_seconds; });
  Traces traces;
  Tracer& tr = new_part(traces, "replay");
  const Replay replay = replay_once(&tr, load);
  const ReplayVerdict verdict = verify_replay(reference, replay, &ref_load, &load);
  out.attempted = 1;

  // The shared engine's step is Balancer::step, which the replay calls.
  // The sharded engine's step is library code the replay only copies, so
  // its step times come from the library's own per-round records.
  std::vector<double> step_us;
  if (open) {
    for (const lb::core::RoundRecord& rec : reference.trace.records()) {
      step_us.push_back(rec.step_us);
    }
  } else {
    step_us = tr.durations_us("core.step");
  }
  report_replay(tr, verdict, replay.rounds, step_us, overhead_s, replay.messages,
                replay.stream_events, out);

  LayerInputs in;
  in.graphs = {&inst->graph};
  in.tokens = std::is_integral_v<T>;
  if constexpr (std::is_integral_v<T>) {
    in.token_loads = {inst->load0};
  } else {
    in.real_loads = {inst->load0};
  }
  in.seed = derive(opt.seed, 3);
  in.rounds = opt.small ? 2 : 8;
  const std::size_t side = inst->side;
  in.rebuild_graphs = [side] { lb::graph::make_torus2d(side, side); };
  in.step_us_p50 = quantile(step_us, 0.5);
  in.pool_one = &pools.one;
  in.pool_hw = &pools.hw;
  in.small = opt.small;
  // The DRAM probe allocates the most memory; run it first.
  probe_roofline(in, out);
  probe_graph(in, out, new_part(traces, "probe.graph"));
  probe_summary(in, out, new_part(traces, "probe.summary"));
  probe_dispatch(in, out, new_part(traces, "probe.dispatch"));

  if (!open) {
    probe_kernel(in, out, new_part(traces, "probe.kernel"));
    write_traces(opt, traces, out);
    return out;
  }

  // The open, sharded run also enters the workload, shard and sim layers.
  const double per_round = 1.0 / static_cast<double>(std::max<std::size_t>(1, replay.rounds.size()));
  out.add("verify.comm_replay_messages",
          verdict.comm_ok ? static_cast<double>(replay.messages) : 0.0, "count");
  out.add("verify.stream_replay_events",
          verdict.stream_ok ? static_cast<double>(replay.stream_events) : 0.0, "count");
  out.add("workload.delta_us", mean(tr.durations_us("workload.delta")), "us");
  out.add("workload.apply_us", mean(tr.durations_us("workload.apply")), "us");
  out.add("workload.events_per_round", static_cast<double>(replay.stream_events) * per_round,
          "count");
  const double exchange = sum(tr.durations_us("sim.send")) +
                          sum(tr.durations_us("sim.deliver")) +
                          sum(tr.durations_us("sim.recv"));
  out.add("sim.exchange_us", exchange * per_round, "us");
  out.add("sim.messages_per_round", static_cast<double>(replay.messages) * per_round, "count");
  out.add("sim.bytes_per_round", static_cast<double>(replay.bytes) * per_round, "B");
  // The split of the sharded step, timed on the replay's copy of its halo
  // round (verified bit-identical, but a copy: it tracks the arithmetic,
  // not the library's cost).
  out.add("core.flows_us", sum(tr.durations_us("core.flows")) * per_round, "us");
  out.add("core.totals_us", sum(tr.durations_us("core.totals")) * per_round, "us");
  out.add("core.apply_us", sum(tr.durations_us("core.apply")) * per_round, "us");
  // shard::run_static over core::run_static on the identical instance at
  // pool 1; the two results must be bit-identical.
  std::vector<T> core_load;
  double core_wall = 0.0;
  const lb::core::RunResult core_run = library_call(false, core_load, core_wall);
  if (!(fingerprint(core_run, &core_load) == fingerprint(reference, &ref_load))) {
    out.fail("shard.executor_ratio: shard::run_static differs from core::run_static");
  }
  out.add("shard.executor_ratio", ref_wall / core_wall, "ratio");
  probe_steady(replay.rounds, out);
  probe_shard_plans(in, out, new_part(traces, "probe.shard_plans"));
  write_traces(opt, traces, out);
  return out;
}

// ---------------------------------------------------------------------------
// campaign-dynamic
// ---------------------------------------------------------------------------

struct CampaignInstance {
  lb::exp::ExperimentPlan plan;
  std::vector<lb::exp::Cell> cells;
};

std::unique_ptr<CampaignInstance> make_campaign(const Options& opt) {
  using namespace lb::exp;
  auto inst = std::make_unique<CampaignInstance>();
  ExperimentPlan& plan = inst->plan;
  const std::size_t n = opt.small ? 64 : 256;
  plan.graphs = {{"torus2d", n}, {"hypercube", n}, {"cycle", n}, {"regular", n}};
  plan.scenarios = {static_scenario(), churn_scenario(0.9, 0.05), partition_scenario(16)};
  plan.workloads = {{"spike", 1000.0}};
  plan.balancers = {{BalancerKind::kSos, 0.0},
                    {BalancerKind::kOps, 0.0},
                    {BalancerKind::kDiffusion, 0.0},
                    {BalancerKind::kDimensionExchange, 0.0},
                    {BalancerKind::kRandomPartner, 0.0}};
  plan.scalars = {Scalar::kReal, Scalar::kTokens};
  plan.seeds = opt.small ? std::vector<std::uint64_t>{1}
                         : std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6};
  plan.engine.max_rounds = opt.small ? 64 : 256;
  plan.epsilon = 1e-4;
  plan.master_seed = derive(opt.seed, 4);
  inst->cells = plan.cells();
  return inst;
}

/// The balancer a cell runs, rebuilt from its spec (cold: no cached β).
template <class T>
std::unique_ptr<lb::core::Balancer<T>> cell_balancer(const lb::exp::BalancerSpec& spec) {
  using lb::exp::BalancerKind;
  switch (spec.kind) {
    case BalancerKind::kDiffusion:
      return std::make_unique<lb::core::DiffusionBalancer<T>>();
    case BalancerKind::kDimensionExchange:
      return std::make_unique<lb::core::DimensionExchange<T>>();
    case BalancerKind::kRandomPartner:
      return std::make_unique<lb::core::RandomPartnerBalancer<T>>();
    case BalancerKind::kSos:
      if constexpr (std::is_same_v<T, double>) return std::make_unique<lb::core::SecondOrderScheme>();
      break;
    case BalancerKind::kOps:
      if constexpr (std::is_same_v<T, double>) {
        return std::make_unique<lb::core::OptimalPolynomialScheme>();
      }
      break;
    default:
      break;
  }
  throw std::invalid_argument("the campaign workload does not run " + spec.label());
}

std::unique_ptr<lb::graph::GraphSequence> cell_scenario(const lb::exp::ScenarioSpec& s,
                                                        const lb::graph::Graph& base,
                                                        std::uint64_t seed) {
  switch (s.kind) {
    case lb::exp::ScenarioKind::kStatic:
      return lb::graph::make_static_view(base);
    case lb::exp::ScenarioKind::kChurn:
      return lb::graph::make_churn_sequence(base, s.a, s.b, seed);
    case lb::exp::ScenarioKind::kPartition:
      return lb::graph::make_partition_sequence(base, s.period);
    default:
      throw std::invalid_argument("the campaign workload does not run " + s.label());
  }
}

lb::graph::Graph cell_base(const lb::exp::ExperimentPlan& plan, std::size_t graph_index) {
  lb::util::Rng rng(lb::exp::graph_build_seed(plan, graph_index));
  return lb::graph::make_named(plan.graphs[graph_index].family, plan.graphs[graph_index].n,
                               rng);
}

template <class T>
std::vector<T> cell_load(const lb::exp::ExperimentPlan& plan, const lb::exp::Cell& cell,
                         std::size_t n) {
  const lb::exp::WorkloadSpec& wl = plan.workloads[cell.workload];
  lb::util::Rng rng(lb::exp::workload_seed(plan, cell));
  const T total = static_cast<T>(wl.total_per_node * static_cast<double>(n));
  return lb::workload::make_named<T>(wl.name, n, total, rng);
}

/// Rebuild one cell from the plan's public seed derivations and replay
/// it (traced when `tr` is not null); verify against the campaign's
/// result for that cell.
template <class T>
ReplayVerdict replay_cell(const lb::exp::ExperimentPlan& plan, const lb::exp::Cell& cell,
                          const lb::core::RunResult& reference, ThreadPool& pool,
                          Tracer* tr, Replay& out) {
  const lb::graph::Graph base = cell_base(plan, cell.graph);
  auto seq = cell_scenario(plan.scenarios[cell.scenario], base,
                           lb::exp::scenario_seed(plan, cell));
  std::vector<T> load = cell_load<T>(plan, cell, base.num_nodes());
  auto balancer = cell_balancer<T>(plan.balancers[cell.balancer]);
  lb::core::EngineConfig cfg = plan.engine;
  cfg.pool = &pool;
  cfg.seed = lb::exp::engine_seed(plan, cell);
  cfg.target_potential = plan.epsilon * lb::core::summarize(load).potential;
  SharedExecutor<T> exec;
  out = replay_run(*balancer, *seq, load, cfg, exec, tr);
  return verify_replay<T>(reference, out, nullptr, nullptr);
}

/// One cell per (scenario, balancer, scalar) combination, first replicate;
/// the j-th combination is taken on base j mod 4, so every base is covered.
std::vector<std::size_t> representative_cells(const CampaignInstance& inst) {
  std::map<std::tuple<std::size_t, std::size_t, int>, std::size_t> order;
  for (const lb::exp::Cell& c : inst.cells) {
    order.emplace(std::make_tuple(c.scenario, c.balancer, static_cast<int>(c.scalar)),
                  order.size());
  }
  std::vector<std::size_t> picked;
  const std::size_t graphs = inst.plan.graphs.size();
  for (std::size_t i = 0; i < inst.cells.size(); ++i) {
    const lb::exp::Cell& c = inst.cells[i];
    const auto key = std::make_tuple(c.scenario, c.balancer, static_cast<int>(c.scalar));
    if (c.seed_index == 0 && c.graph == order[key] % graphs) picked.push_back(i);
  }
  return picked;
}

Outcome run_campaign(const Options& opt) {
  Outcome out;
  auto inst = timed_setup(opt, out, [&] { return make_campaign(opt); });
  Pools pools;
  const auto run_campaign_on = [&](ThreadPool& pool) {
    lb::exp::CampaignRunner runner({lb::exp::ArtifactMode::kCached, &pool});
    return runner.run(inst->plan);
  };

  if (!opt.trace) {
    const auto reference = run_legs(opt, pools, out, [&](ThreadPool& pool, bool count) {
      Call c;
      std::optional<AllocScope> allocs;
      if (count) allocs.emplace();
      const std::int64_t start = now_ns();
      const lb::exp::CampaignReport report = run_campaign_on(pool);
      c.seconds = seconds_since(start);
      if (allocs) c.allocs = allocs->count();
      allocs.reset();
      for (const lb::exp::CellResult& cell : report.cells) {
        c.rounds += cell.run.rounds;
        c.fps.push_back(fingerprint<double>(cell.run, nullptr));
      }
      return c;
    });
    if (!reference.empty()) check_expected(opt, combine(reference), out);
    out.add("peak_rss_mb", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced run: the campaign's own results at pool 1, then a rebuilt
  // representative subset replayed, then the probes of the layers this
  // workload enters.
  const lb::exp::CampaignReport report = run_campaign_on(pools.one);
  Traces traces;
  Tracer& tr = new_part(traces, "replay");
  const std::vector<std::size_t> subset = representative_cells(*inst);
  ReplayVerdict verdict;
  std::vector<ReplayRound> rounds;
  double overhead_s = 0.0;
  for (std::size_t idx : subset) {
    const lb::exp::Cell& cell = inst->cells[idx];
    const lb::core::RunResult& ref = report.cells[idx].run;
    const auto replay_once = [&](Tracer* t, Replay& replay) {
      return cell.scalar == lb::exp::Scalar::kReal
                 ? replay_cell<double>(inst->plan, cell, ref, pools.one, t, replay)
                 : replay_cell<std::int64_t>(inst->plan, cell, ref, pools.one, t, replay);
    };
    Replay replay;
    overhead_s += tracing_overhead_s([&](Tracer* t) {
      replay_once(t, replay);
      return replay.wall_seconds;
    });
    const ReplayVerdict v = replay_once(&tr, replay);
    ++out.attempted;
    verdict.rounds_ok = verdict.rounds_ok && v.rounds_ok;
    verdict.comm_ok = verdict.comm_ok && v.comm_ok;
    verdict.stream_ok = verdict.stream_ok && v.stream_ok;
    for (const std::string& why : v.why) {
      verdict.why.push_back(inst->plan.cell_label(cell) + ": " + why);
    }
    rounds.insert(rounds.end(), replay.rounds.begin(), replay.rounds.end());
  }
  const std::vector<double> step_us = tr.durations_us("core.step");
  report_replay(tr, verdict, rounds, step_us, overhead_s, 0, 0, out);
  out.note("replayed " + std::to_string(subset.size()) + " of " +
           std::to_string(inst->cells.size()) + " cells");

  // exp: run_cell_fresh over the replayed subset, each checked against
  // the campaign's own result for that cell.
  std::vector<double> cell_us;
  for (std::size_t idx : subset) {
    const std::int64_t start = now_ns();
    const lb::exp::CellResult r =
        lb::exp::CampaignRunner::run_cell_fresh(inst->plan, inst->cells[idx], &pools.one);
    cell_us.push_back(seconds_since(start) * 1e6);
    if (!(fingerprint<double>(r.run, nullptr) ==
          fingerprint<double>(report.cells[idx].run, nullptr))) {
      out.fail("run_cell_fresh differs from the campaign for " +
               inst->plan.cell_label(inst->cells[idx]));
    }
  }
  double total_rounds = 0.0;
  for (const lb::exp::CellResult& c : report.cells) {
    total_rounds += static_cast<double>(c.run.rounds);
  }
  out.add("exp.cell_us.p50", quantile(cell_us, 0.5), "us");
  out.add("exp.cell_us.p90", quantile(cell_us, 0.9), "us");
  out.add("exp.cells", static_cast<double>(report.cells.size()), "count");
  out.add("exp.rounds", total_rounds, "count");

  LayerInputs in;
  std::vector<lb::graph::Graph> bases;
  bases.reserve(inst->plan.graphs.size());
  for (std::size_t gi = 0; gi < inst->plan.graphs.size(); ++gi) {
    bases.push_back(cell_base(inst->plan, gi));
    lb::exp::Cell first;
    first.graph = gi;
    in.real_loads.push_back(cell_load<double>(inst->plan, first, bases.back().num_nodes()));
  }
  for (const lb::graph::Graph& g : bases) in.graphs.push_back(&g);
  in.seed = derive(opt.seed, 3);
  in.rounds = opt.small ? 2 : 8;
  in.rebuild_graphs = [&] {
    for (std::size_t gi = 0; gi < inst->plan.graphs.size(); ++gi) cell_base(inst->plan, gi);
  };
  in.step_us_p50 = quantile(step_us, 0.5);
  in.pool_one = &pools.one;
  in.pool_hw = &pools.hw;
  in.small = opt.small;
  probe_roofline(in, out);
  probe_graph(in, out, new_part(traces, "probe.graph"));
  probe_kernel(in, out, new_part(traces, "probe.kernel"));
  probe_summary(in, out, new_part(traces, "probe.summary"));
  probe_linalg(in, out, new_part(traces, "probe.linalg"));
  probe_dispatch(in, out, new_part(traces, "probe.dispatch"));
  write_traces(opt, traces, out);
  return out;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"torus1m-closed", "torus256k-open-sharded", "campaign-dynamic"};
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "torus1m-closed") return run_torus<double>(opt, false);
  if (opt.workload == "torus256k-open-sharded") return run_torus<std::int64_t>(opt, true);
  if (opt.workload == "campaign-dynamic") return run_campaign(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
