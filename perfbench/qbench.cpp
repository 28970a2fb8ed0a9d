/// qbench -- the qplace benchmark program (perfbench/README.md).
///
///   qbench --workload relay-lp|large-layout|sim-churn --seed N
///          --seconds S --trace 0|1
///
/// Every workload is a closed loop with one caller: instance after instance
/// is generated (a fixed quality panel first, then from the workload seed)
/// and pushed through the user pipeline
///   set-up -> placement -> certificate -> simulation (fault-free, churn)
/// until S seconds have passed. The workloads differ in which stage
/// dominates. --trace 0 reports the end-to-end metrics. --trace 1 runs the
/// same loop, also replays the relay sweep call by call from outside
/// (relay-lp) and checks work-count determinism, and reports the per-layer
/// metrics from the benchmark's own timers and the registry counters read
/// between calls. The last stdout line is one JSON object {"correct",
/// "attempted", "failed", "metrics"}; the lines before it are provenance and
/// one line per metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/certificate.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"
#include "core/grid_layout.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"
#include "core/specialized.hpp"
#include "core/ssqpp_lp.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qp;
using Clock = std::chrono::steady_clock;

// The solver pool size in every workload; the 1-thread pass of a traced run
// is the single-threaded baseline for exec.sweep_speedup.
constexpr int kPoolThreads = 2;
constexpr double kAlpha = 2.0;
// Capacity of every node, as a multiple of the largest element load.
constexpr double kCapFactor = 1.2;
// A call shorter than this is repeated and its median call time taken, so
// that sub-millisecond calls are not timed at the host's noise floor.
constexpr double kMinTimedSeconds = 0.1;
// Seed of the quality panel: the first instances of every run, the same
// whatever --seed is, so the quality metrics repeat exactly across seeds.
constexpr std::uint64_t kPanelSeed = 0x5eed;
// Every time is reported at a reference host speed: wall time x
// kReferenceKernelSeconds / the calibration kernel's time around the call.
// On a shared host a core's speed drifts by up to 2x over seconds to
// minutes (thread CPU time drifts with wall time, so it is not stolen time),
// and a raw wall time reads that drift as much as the program.
constexpr double kReferenceKernelSeconds = 2e-3;
// Target peak node utilisation of both simulation phases; at 0.48 the churn
// phase collapses into a retry storm, which is real but not steady.
constexpr double kTargetUtilisation = 0.2;
// Churn intensity per 10^4 simulated time units (scaled to each workload's
// horizon so every node spends the same share of time down or slowed).
constexpr double kChurnHorizon = 1e4;
constexpr double kCrashesPerNode = 10.0;
constexpr double kGrayPerNode = 10.0;
constexpr double kPartitions = 0.5;

enum class Topology { kGeometric, kWaxman };
enum class Layout { kRelayLp, kGrid, kMajority };

struct WorkloadSpec {
  const char* name;
  Topology topology;
  int nodes;
  double p1;  ///< geometric: radius; waxman: a
  double p2;  ///< waxman: b
  Layout layout;
  int k;  ///< grid side, or majority universe size
  int t;  ///< majority threshold
  /// Simulated horizon and per-client access rate. A long horizon at a low
  /// rate gives each instance many fault windows for the same number of
  /// accesses, so the churn phase's cost varies little between instances.
  double sim_duration;
  double sim_rate;
  /// Instances 0..panel-1 of every run are the quality panel, drawn from
  /// kPanelSeed; every run completes them, and the quality metrics average
  /// exactly them. Later instances are drawn from --seed.
  int panel_instances;
};

// Why each workload exists, and which layers it should and should not move,
// is written down in perfbench/README.md.
const WorkloadSpec kWorkloads[] = {
    {"relay-lp", Topology::kGeometric, 14, 0.45, 0.0, Layout::kRelayLp, 3, 0,
     8000.0, 0.25, 8},
    {"large-layout", Topology::kWaxman, 512, 0.9, 0.4, Layout::kGrid, 5, 0,
     1000.0, 0.03, 6},
    {"sim-churn", Topology::kWaxman, 64, 0.9, 0.4, Layout::kMajority, 5, 3,
     1e4, 0.25, 12},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qbench: " << why
            << "\nusage: qbench --workload relay-lp|large-layout|sim-churn "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of one input of instance `index`; `salt` separates the topology,
/// the simulator and the fault schedule. Panel instances ignore the run seed.
std::uint64_t derive_seed(const WorkloadSpec& w, std::uint64_t seed, int index,
                          std::uint64_t salt) {
  const std::uint64_t base = index < w.panel_instances ? kPanelSeed : seed;
  const std::uint64_t instance =
      splitmix64(splitmix64(base) + static_cast<std::uint64_t>(index));
  return splitmix64(instance + salt);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Timing and counters.

/// Calibration kernel times of the run, one per calibration.
std::vector<double> kernel_samples;

/// `passes` multiply-add sweeps of x into y.
void kernel_passes(std::vector<double>& y, const std::vector<double>& x,
                   int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      y[i] = y[i] * 0.999 + x[i] * static_cast<double>(i & 7);
    }
  }
}

/// A random cyclic permutation of 2^16 slots (256 KB) for pointer chasing.
std::vector<std::uint32_t> random_cycle() {
  std::vector<std::uint32_t> order(1 << 16);
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::mt19937 rng(7);
  std::shuffle(order.begin() + 1, order.end(), rng);
  std::vector<std::uint32_t> next(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    next[order[i]] = order[(i + 1) % order.size()];
  }
  return next;
}

/// `hops` dependent loads around the cycle with an unpredictable branch each.
std::uint64_t chase(const std::vector<std::uint32_t>& next, int hops) {
  std::uint32_t at = 0;
  std::uint64_t acc = 0;
  for (int hop = 0; hop < hops; ++hop) {
    at = next[at];
    if ((at & 1) != 0) {
      acc += at;
    } else {
      acc ^= static_cast<std::uint64_t>(at) << 1;
    }
  }
  return acc;
}

/// Median time of a fixed kernel on the calling thread, independent of
/// qplace: the host's current speed. Neighbours slow different code
/// differently, so it mixes three kinds: multiply-adds on a 512 KB working
/// set (inside L2), streaming over 4 MB (inside L3, the size of a relay-lp
/// tableau), and branchy pointer chasing over 256 KB (like the simulator).
double calibrate() {
  static std::vector<double> small_x(1 << 15, 1.0);
  static std::vector<double> small_y(1 << 15, 0.5);
  static std::vector<double> large_x(1 << 18, 1.0);
  static std::vector<double> large_y(1 << 18, 0.5);
  static const std::vector<std::uint32_t> cycle = random_cycle();
  std::vector<double> times;
  std::uint64_t chased = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    kernel_passes(small_y, small_x, 15);
    kernel_passes(large_y, large_x, 2);
    chased += chase(cycle, 100000);
    times.push_back(since(start));
  }
  // The loops' results are used.
  volatile double keep = small_y[0] + large_y[0] + static_cast<double>(chased);
  (void)keep;
  const double kernel = median(times);
  kernel_samples.push_back(kernel);
  return kernel;
}

/// Factor from wall time to reference-speed time, from calibrations taken
/// just before and just after the timed work.
double speed_scale(double kernel_before, double kernel_after) {
  return kReferenceKernelSeconds / (0.5 * (kernel_before + kernel_after));
}

using Counters = std::map<std::string, std::uint64_t>;

Counters counters() { return obs::Registry::instance().counter_values(); }

/// Change of one counter between two snapshots (absent = never touched).
double delta(const Counters& after, const Counters& before,
             const std::string& name) {
  const auto value = [&name](const Counters& c) {
    const auto it = c.find(name);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  return static_cast<double>(value(after) - value(before));
}

/// One timed call into the library.
struct Timed {
  double seconds = 0.0;  ///< median time of one call, at reference speed
  double scale = 1.0;    ///< wall time -> reference-speed time
  /// Registry counter deltas per call. Every repetition does the same work
  /// (the library is deterministic), so these are exact.
  std::map<std::string, double> work;

  double count(const std::string& name) const {
    const auto it = work.find(name);
    return it == work.end() ? 0.0 : it->second;
  }
};

/// Calls fn until kMinTimedSeconds have passed (at least once) and returns
/// the median call time at reference speed. The counter snapshots and the
/// calibrations lie outside the timed calls.
Timed timed(const std::function<void()>& fn) {
  const double kernel_before = calibrate();
  const Counters before = counters();
  std::vector<double> durations;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point call = Clock::now();
    fn();
    durations.push_back(since(call));
  } while (since(start) < kMinTimedSeconds);
  const Counters after = counters();
  Timed t;
  t.scale = speed_scale(kernel_before, calibrate());
  t.seconds = t.scale * median(durations);
  for (const auto& entry : after) {
    t.work[entry.first] = delta(after, before, entry.first) /
                          static_cast<double>(durations.size());
  }
  return t;
}

/// The counters the determinism contract (docs/PARALLEL.md) pins: they must
/// not change with the seed replayed or the pool size.
const std::vector<std::string> kPinnedWork = {
    "graph.heap_pops", "lp.pivots", "gap.lp_solves", "gap.round_calls",
    "gap.slots", "gap.jobs", "gap.machines", "sim.retries", "sim.timeouts"};

/// Pinned counters of every stage of one instance.
using WorkCounts = std::map<std::string, double>;

void record_work(WorkCounts& work, const std::string& stage, const Timed& t) {
  for (const std::string& name : kPinnedWork) {
    work[stage + ":" + name] = t.count(name);
  }
}

// ---------------------------------------------------------------------------
// The pipeline.

struct Built {
  std::optional<core::QppInstance> instance;
  double apsp_s = 0.0;
};

Built build_instance(const WorkloadSpec& w, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  graph::Graph g = w.topology == Topology::kGeometric
                       ? graph::random_geometric(w.nodes, w.p1, rng).graph
                       : graph::waxman(w.nodes, w.p1, w.p2, rng).graph;
  Built built;
  const Clock::time_point apsp_start = Clock::now();
  graph::Metric metric = graph::Metric::from_graph(g);
  built.apsp_s = since(apsp_start);
  quorum::QuorumSystem system = w.layout == Layout::kMajority
                                    ? quorum::majority(w.k, w.t)
                                    : quorum::grid(w.k);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double cap =
      kCapFactor * *std::max_element(loads.begin(), loads.end());
  built.instance.emplace(
      std::move(metric),
      std::vector<double>(static_cast<std::size_t>(w.nodes), cap),
      std::move(system), std::move(strategy));
  return built;
}

/// The max-delay placement of the workload's algorithm.
struct MaxDelayPlacement {
  core::Placement placement;
  int chosen_source = -1;
  double average_delay = 0.0;
  std::optional<core::QppResult> qpp;  ///< relay-lp only
};

std::optional<MaxDelayPlacement> place(const WorkloadSpec& w,
                                       const core::QppInstance& instance) {
  if (w.layout == Layout::kRelayLp) {
    core::QppSolveOptions options;
    options.alpha = kAlpha;
    std::optional<core::QppResult> r = core::solve_qpp(instance, options);
    if (!r) return std::nullopt;
    return MaxDelayPlacement{r->placement, r->chosen_source, r->average_delay,
                             r};
  }
  const std::optional<core::SpecializedQppResult> r =
      w.layout == Layout::kGrid ? core::solve_qpp_grid(instance, w.k)
                                : core::solve_qpp_majority(instance, w.t);
  if (!r) return std::nullopt;
  return MaxDelayPlacement{r->placement, r->chosen_source, r->average_delay,
                           std::nullopt};
}

sim::SimulationConfig sim_config(const WorkloadSpec& w,
                                 const core::QppInstance& instance,
                                 const core::Placement& placement,
                                 std::uint64_t seed) {
  const std::vector<double> node_load =
      core::node_loads(instance.element_loads(), placement, w.nodes);
  const double peak_probe_rate =
      w.nodes * w.sim_rate *
      *std::max_element(node_load.begin(), node_load.end());
  sim::SimulationConfig config;
  config.arrival_rate_per_client = w.sim_rate;
  config.duration = w.sim_duration;
  config.mode = sim::AccessMode::kParallel;
  config.service_rate = peak_probe_rate / kTargetUtilisation;
  config.latency_jitter = 0.1;
  config.warmup = 0.01 * w.sim_duration;
  config.seed = seed;
  return config;
}

sim::FaultSchedule churn_schedule(const WorkloadSpec& w, std::uint64_t seed) {
  const double scale = w.sim_duration / kChurnHorizon;
  sim::RandomFaultOptions churn;
  churn.crash_rate = kCrashesPerNode * scale;
  churn.gray_rate = kGrayPerNode * scale;
  churn.partition_rate = kPartitions * scale;
  churn.mean_downtime = 50.0;
  churn.mean_gray_duration = 50.0;
  churn.mean_partition_duration = 50.0;
  return sim::random_fault_schedule(w.nodes, w.sim_duration, churn, seed);
}

/// Bytes of a dense simplex tableau with `rows` constraints over `vars`
/// structural columns plus one slack column per row (computed from the model
/// size, not measured).
double tableau_bytes(double rows, double vars) {
  return rows * (vars + rows) * 8.0;
}

// ---------------------------------------------------------------------------
// Per-run accumulation.

struct Run {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  std::vector<double> setup_s, solve_s, check_s;
  std::vector<double> calm_rate, churn_rate;  ///< accesses per wall second
  std::vector<double> avg_delay, certified_ratio, gap_total_delay;
  double tableau_bytes = 0.0;  ///< largest computed tableau of the run

  // Traced run only.
  std::map<std::string, std::vector<double>> layer;  ///< per instance
  std::map<std::string, double> sums;                ///< pooled over instances
  bool fidelity_ok = true;

  /// One public call or output check: counts it, and records it as failed
  /// when `ok` is false.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
  void add(const std::string& name, double value) {
    layer[name].push_back(value);
  }
  void sum(const std::string& name, double value) { sums[name] += value; }
  /// Value of `name` for the run's first instance (0 if it never got there).
  double first(const std::string& name) {
    const std::vector<double>& values = layer[name];
    return values.empty() ? 0.0 : values.front();
  }
};

/// Relay sweep of solve_qpp replayed from outside: for every candidate v0
/// the calls solve_ssqpp makes, each one timed, on the same pool with the
/// same chunking. Returns the replay's time at reference speed, or nullopt
/// if it picks another relay or placement than solve_qpp did.
std::optional<double> replay_relay_sweep(const core::QppInstance& instance,
                                         const MaxDelayPlacement& solved,
                                         Run& run) {
  const int n = instance.num_nodes();
  struct Slot {
    std::optional<core::Placement> placement;
    double average = 0.0;
    double view_s = 0.0, lp_s = 0.0, filter_round_s = 0.0, eval_s = 0.0;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(n));
  const double kernel_before = calibrate();
  const Counters before = counters();
  const Clock::time_point start = Clock::now();
  exec::parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    Slot& slot = slots[i];
    Clock::time_point t0 = Clock::now();
    const core::SsqppInstance view =
        core::single_source_view(instance, static_cast<int>(i));
    slot.view_s = since(t0);
    t0 = Clock::now();
    const core::FractionalSsqpp fractional = core::solve_ssqpp_lp(view);
    slot.lp_s = since(t0);
    if (fractional.status != lp::SolveStatus::kOptimal) return;
    t0 = Clock::now();
    const core::FractionalSsqpp filtered =
        core::filter_fractional(fractional, kAlpha);
    slot.placement = core::round_filtered_ssqpp(view, filtered, kAlpha);
    slot.filter_round_s = since(t0);
    if (!slot.placement) return;
    t0 = Clock::now();
    slot.average = core::average_max_delay(instance, *slot.placement);
    slot.eval_s = since(t0);
  });
  const double replay_wall = since(start);
  const Counters after = counters();
  const double scale = speed_scale(kernel_before, calibrate());

  int best = -1;
  double view_s = 0.0, lp_s = 0.0, filter_round_s = 0.0, eval_s = 0.0;
  for (int i = 0; i < n; ++i) {
    const Slot& slot = slots[static_cast<std::size_t>(i)];
    view_s += slot.view_s;
    lp_s += slot.lp_s;
    filter_round_s += slot.filter_round_s;
    eval_s += slot.eval_s;
    if (!slot.placement) continue;
    if (best < 0 ||
        slot.average < slots[static_cast<std::size_t>(best)].average) {
      best = i;
    }
  }
  run.add("core.view_s", scale * view_s);
  run.add("core.source_solve_s", scale * lp_s);
  run.add("core.sweep_eval_s", scale * eval_s);
  run.sum("replay.filter_round_s", filter_round_s);
  run.sum("replay.total_s", view_s + lp_s + filter_round_s + eval_s);
  run.sum("replay.lp_s", scale * lp_s);
  run.sum("replay.pivots", delta(after, before, "lp.pivots"));
  if (best < 0) return std::nullopt;
  const Slot& winner = slots[static_cast<std::size_t>(best)];
  if (best != solved.chosen_source || *winner.placement != solved.placement ||
      winner.average != solved.average_delay) {
    return std::nullopt;
  }
  return scale * replay_wall;
}

/// Per-source cost of the Sec 4 layout sweep (solve_qpp_grid /
/// solve_qpp_majority): the chosen source's view, layout and evaluation,
/// each timed once and scaled by the number of sources.
void probe_layout_sweep(const WorkloadSpec& w,
                        const core::QppInstance& instance,
                        const MaxDelayPlacement& solved, Run& run) {
  const double n = instance.num_nodes();
  std::optional<core::SsqppInstance> view;
  const Timed view_call = timed(
      [&] { view = core::single_source_view(instance, solved.chosen_source); });
  const Timed layout_call = timed([&] {
    if (w.layout == Layout::kGrid) {
      (void)core::optimal_grid_layout(*view, w.k);
    } else {
      (void)core::majority_layout(*view, w.t);
    }
  });
  const Timed eval_call =
      timed([&] { (void)core::average_max_delay(instance, solved.placement); });
  run.add("core.view_s", n * view_call.seconds);
  run.add("core.source_solve_s", n * layout_call.seconds);
  run.add("core.sweep_eval_s", n * eval_call.seconds);
}

/// Instance `index` of the run through the whole pipeline. `work` (when
/// non-null) receives the pinned counters of every stage.
void run_instance(const WorkloadSpec& w, const Args& args, int index, Run& run,
                  WorkCounts* work) {
  const std::string tag =
      std::string(w.name) + " instance " + std::to_string(index) + ": ";

  // Set-up: topology, all-pairs metric, quorum system, QppInstance.
  Built built;
  std::vector<double> apsp_s;
  const Timed setup = timed([&] {
    built = build_instance(w, derive_seed(w, args.seed, index, 1));
    apsp_s.push_back(built.apsp_s);
  });
  run.setup_s.push_back(setup.seconds);
  const core::QppInstance& instance = *built.instance;

  // Placement: the workload's max-delay algorithm, then Thm 5.1.
  std::optional<MaxDelayPlacement> solved;
  std::optional<core::TotalDelayResult> total;
  const Timed sweep = timed([&] { solved = place(w, instance); });
  const Timed total_delay =
      timed([&] { total = core::solve_total_delay(instance); });
  run.solve_s.push_back(sweep.seconds + total_delay.seconds);
  run.op(solved.has_value(), tag + "no max-delay placement");
  run.op(total.has_value(), tag + "no total-delay placement");
  if (!solved || !total) return;

  const double models = sweep.count("ssqpp_lp.models");
  const double rows =
      models > 0 ? sweep.count("ssqpp_lp.constraints") / models : 0.0;
  const double vars =
      models > 0 ? sweep.count("ssqpp_lp.variables") / models : 0.0;
  const double universe = instance.system().universe_size();
  const double gap_rows = universe + w.nodes;  // (17) per job, (16) per node
  run.tableau_bytes =
      std::max({run.tableau_bytes, tableau_bytes(rows, vars),
                tableau_bytes(gap_rows, universe * w.nodes)});

  // Certificates: Thm 1.2 for the relay-lp placement, Thm 5.1 everywhere.
  std::optional<check::Certificate> qpp_cert;
  check::Certificate total_cert;
  check::CertificateOptions cert_options;
  cert_options.alpha = kAlpha;
  cert_options.derive_opt_lower_bound = true;
  const Timed check = timed([&] {
    if (solved->qpp) {
      qpp_cert =
          check::check_certificate(instance, *solved->qpp, cert_options);
    }
    total_cert = check::check_certificate(instance, *total, cert_options);
  });
  run.check_s.push_back(check.seconds);
  if (qpp_cert) {
    run.op(qpp_cert->ok(), tag + "Thm 1.2 certificate not CERTIFIED");
  }
  run.op(total_cert.ok(), tag + "Thm 5.1 certificate not CERTIFIED");

  // Output checks, outside the timed calls.
  const double max_load = w.layout == Layout::kRelayLp ? kAlpha + 1.0 : 1.0;
  run.op(check::validate_placement(instance, solved->placement,
                                   {max_load, 1e-9})
             .ok(),
         tag + "max-delay placement breaks its load bound");
  run.op(
      check::validate_placement(instance, total->placement, {2.0, 1e-9}).ok(),
      tag + "Thm 5.1 placement load above 2 cap");
  const double gamma = core::average_total_delay(instance, total->placement);
  run.op(gamma <= total->lp_objective * (1.0 + 1e-9) + 1e-9,
         tag + "Thm 5.1 placement Gamma above its GAP LP value");
  const double delay = core::average_max_delay(instance, solved->placement);
  run.op(delay == solved->average_delay,
         tag + "reported average delay differs from the evaluator");
  if (index < w.panel_instances) {
    run.avg_delay.push_back(delay);
    run.certified_ratio.push_back(qpp_cert ? qpp_cert->certified_ratio
                                           : total_cert.certified_ratio);
    run.gap_total_delay.push_back(gamma);
  }

  // Simulation of the max-delay placement: fault-free, then under churn.
  const sim::SimulationConfig config = sim_config(
      w, instance, solved->placement, derive_seed(w, args.seed, index, 2));
  sim::SimulationResult calm;
  const Timed calm_run =
      timed([&] { calm = sim::simulate(instance, solved->placement, config); });
  const double calm_resolved =
      static_cast<double>(calm.completed_accesses + calm.failed_accesses);
  run.calm_rate.push_back(calm_resolved / calm_run.seconds);
  bool shares_ok = calm.availability == 1.0 && calm.completed_accesses > 0;
  const std::vector<double> expected_share =
      core::node_loads(instance.element_loads(), solved->placement, w.nodes);
  std::vector<int> elements_on(static_cast<std::size_t>(w.nodes), 0);
  for (int node : solved->placement) {
    ++elements_on[static_cast<std::size_t>(node)];
  }
  for (int v = 0; v < w.nodes && shares_ok; ++v) {
    // Probes per access at v lie in [0, elements on v], so the share's
    // standard error is at most half that over sqrt(accesses); allow six.
    const auto i = static_cast<std::size_t>(v);
    const double tolerance =
        6.0 * 0.5 * std::max(1, elements_on[i]) / std::sqrt(calm_resolved);
    shares_ok = std::abs(calm.per_node_access_share[i] - expected_share[i]) <=
                tolerance;
  }
  run.op(shares_ok,
         tag + "fault-free simulation: availability below 1 or access "
               "shares off load_f(v)");

  sim::SimulationConfig churn_config = config;
  const sim::FaultSchedule schedule =
      churn_schedule(w, derive_seed(w, args.seed, index, 3));
  churn_config.faults = &schedule;
  churn_config.probe_timeout = 4.0;
  churn_config.max_attempts = 3;
  sim::SimulationResult churn;
  const Timed churn_run = timed([&] {
    churn = sim::simulate(instance, solved->placement, churn_config);
  });
  const double churn_resolved =
      static_cast<double>(churn.completed_accesses + churn.failed_accesses);
  run.churn_rate.push_back(churn_resolved / churn_run.seconds);
  std::int64_t per_client_total = 0;
  for (std::int64_t c : churn.per_client_count) per_client_total += c;
  run.op(churn.safety_ok && churn_resolved > 0 &&
             per_client_total == churn.completed_accesses &&
             churn_run.count("sim.completed_accesses") +
                     churn_run.count("sim.failed_accesses") ==
                 churn_resolved &&
             std::abs(churn.availability * churn_resolved -
                      static_cast<double>(churn.completed_accesses)) < 1e-6,
         tag + "churn simulation: completed + failed != resolved, or "
               "safety violated");

  if (work != nullptr) {
    record_work(*work, "setup", setup);
    record_work(*work, "sweep", sweep);
    record_work(*work, "total_delay", total_delay);
    record_work(*work, "churn", churn_run);
  }
  if (!args.trace) return;

  if (w.layout == Layout::kRelayLp) {
    // Traced solve_s: the sweep replayed call by call, then Thm 5.1.
    const std::optional<double> replay_wall =
        replay_relay_sweep(instance, *solved, run);
    if (!replay_wall) run.fidelity_ok = false;
    run.op(replay_wall.has_value(),
           tag + "outside-in relay replay disagrees with solve_qpp");
    if (replay_wall) {
      run.add("bench.trace_overhead_frac",
              (*replay_wall + total_delay.seconds) /
                      (sweep.seconds + total_delay.seconds) -
                  1.0);
    }
  } else {
    probe_layout_sweep(w, instance, *solved, run);
  }

  run.add("graph.apsp_s", setup.scale * median(apsp_s));
  run.add("graph.heap_pops", setup.count("graph.heap_pops"));
  run.add("core.sweep_s", sweep.seconds);
  run.sum("qpp.relay_feasible", sweep.count("qpp.relay_feasible"));
  run.sum("qpp.relay_candidates", sweep.count("qpp.relay_candidates"));
  run.add("assign.total_delay_s", total_delay.seconds);
  run.add("ssqpp_lp.constraints", rows);
  run.add("ssqpp_lp.variables", vars);
  run.add("lp.tableau_mb_computed",
          std::max(tableau_bytes(rows, vars),
                   tableau_bytes(gap_rows, universe * w.nodes)) / 1e6);
  for (const char* name : {"lp.pivots", "gap.slots", "gap.lp_solves"}) {
    run.add(name, sweep.count(name) + total_delay.count(name));
  }
  for (const char* name : {"lp.pivots", "lp.solves", "lp.iterations"}) {
    run.sum(name, sweep.count(name) + total_delay.count(name));
  }
  run.sum("gap.s", total_delay.seconds);
  run.sum("gap.pivots", total_delay.count("lp.pivots"));
  run.add("check.certificate_s", check.seconds);
  run.add("check.lp_resolves", check.count("lp.solves"));
  run.add("check.lp_pivots", check.count("lp.pivots"));
  run.add("sim.fault_free_s", calm_run.seconds);
  run.add("sim.churn_s", churn_run.seconds);
  run.add("sim.timeouts", churn_run.count("sim.timeouts"));
  run.add("sim.failed_accesses", churn_run.count("sim.failed_accesses"));
  run.sum("sim.wall", calm_run.seconds + churn_run.seconds);
  run.sum("sim.probes", calm_run.count("sim.measured_probes") +
                            churn_run.count("sim.measured_probes"));
  run.sum("sim.retries", churn_run.count("sim.retries"));
  run.sum("sim.churn_resolved", churn_resolved);
  run.sum("sim.churn_completed",
          static_cast<double>(churn.completed_accesses));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  ///< "lower", "higher" or "" (per-layer, no direction)
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Idle seconds and busy share of the pool's workers since it was created.
std::pair<double, double> pool_idle_busy() {
  const obs::json::Value stats = obs::json::parse(exec::pool_stats_json());
  double busy = 0.0, idle = 0.0;
  if (const obs::json::Value* workers = stats.find("workers")) {
    for (const obs::json::Value& worker : workers->array) {
      busy += worker.get_number("busy_ms", 0.0);
      idle += worker.get_number("idle_ms", 0.0);
    }
  }
  return {idle / 1000.0, ratio(busy, busy + idle)};
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) usage("unknown workload '" + args.workload + "'");
  const WorkloadSpec& w = *spec;

  Run run;
  double speedup = 0.0;
  bool deterministic = true;
  try {
    // Traced run: instance 0 first goes through the pipeline on a 1-thread
    // pool. Its pinned work counters must equal those of the 2-thread pass
    // over the same seed below (docs/PARALLEL.md determinism contract), and
    // its sweep time is the single-threaded baseline.
    WorkCounts one_thread;
    double one_thread_sweep = 0.0;
    if (args.trace) {
      exec::set_num_threads(1);
      Run baseline;
      run_instance(w, args, 0, baseline, &one_thread);
      one_thread_sweep = baseline.first("core.sweep_s");
    }
    exec::set_num_threads(kPoolThreads);

    const Counters loop_before = counters();
    const Clock::time_point start = Clock::now();
    for (int index = 0;
         index < w.panel_instances || since(start) < args.seconds; ++index) {
      WorkCounts two_thread;
      const bool pinned = args.trace && index == 0;
      run_instance(w, args, index, run, pinned ? &two_thread : nullptr);
      if (!pinned) continue;
      speedup = ratio(one_thread_sweep, run.first("core.sweep_s"));
      for (const auto& [name, value] : two_thread) {
        if (one_thread[name] != value) {
          deterministic = false;
          std::cout << "work-count mismatch " << name << ": 1 thread "
                    << one_thread[name] << ", 2 threads " << value << "\n";
        }
      }
      run.op(deterministic,
             "pinned work counters differ between a 1-thread and a "
             "2-thread pass over the same seed");
    }
    run.sum("exec.chunks", delta(counters(), loop_before, "exec.chunks"));
  } catch (const std::exception& e) {
    run.op(false, std::string("exception: ") + e.what());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double failed_frac = ratio(static_cast<double>(run.failed),
                                     static_cast<double>(run.attempted));
    metrics = {
        {"setup_s", median(run.setup_s), "s", "lower"},
        {"solve_s", median(run.solve_s), "s", "lower"},
        {"check_s", median(run.check_s), "s", "lower"},
        {"sim_accesses_per_s", median(run.calm_rate), "1/s", "higher"},
        {"sim_churn_accesses_per_s", median(run.churn_rate), "1/s", "higher"},
        {"peak_rss_mb", peak_rss_mb(), "MB", "lower"},
        {"avg_delay", mean(run.avg_delay), "distance", "lower"},
        {"certified_ratio", mean(run.certified_ratio), "ratio", "lower"},
        {"gap_total_delay", mean(run.gap_total_delay), "distance", "lower"},
        {"success_frac", 1.0 - failed_frac, "ratio", "higher"},
    };
  } else {
    const auto med = [&run](const std::string& name) {
      return median(run.layer[name]);
    };
    const auto pooled = [&run](const std::string& num, const std::string& den) {
      return ratio(run.sums[num], run.sums[den]);
    };
    const auto [idle_s, busy_frac] = pool_idle_busy();
    const double us_per_pivot =
        1e6 * (w.layout == Layout::kRelayLp
                   ? pooled("replay.lp_s", "replay.pivots")
                   : pooled("gap.s", "gap.pivots"));
    run.sums["instances"] = static_cast<double>(run.setup_s.size());
    metrics = {
        {"graph.apsp_s", med("graph.apsp_s"), "s", ""},
        {"graph.heap_pops", med("graph.heap_pops"), "count", ""},
        {"core.sweep_s", med("core.sweep_s"), "s", ""},
        {"core.view_s", med("core.view_s"), "s", ""},
        {"core.source_solve_s", med("core.source_solve_s"), "s", ""},
        {"core.filter_round_frac",
         pooled("replay.filter_round_s", "replay.total_s"), "ratio", ""},
        {"core.sweep_eval_s", med("core.sweep_eval_s"), "s", ""},
        {"core.relay_feasible_ratio",
         pooled("qpp.relay_feasible", "qpp.relay_candidates"), "ratio", ""},
        {"ssqpp_lp.constraints", med("ssqpp_lp.constraints"), "count", ""},
        {"ssqpp_lp.variables", med("ssqpp_lp.variables"), "count", ""},
        {"lp.pivots", med("lp.pivots"), "count", ""},
        {"lp.pivots_per_solve", pooled("lp.pivots", "lp.solves"), "count", ""},
        {"lp.pivot_ratio", pooled("lp.pivots", "lp.iterations"), "ratio", ""},
        {"lp.us_per_pivot", us_per_pivot, "us", ""},
        {"lp.tableau_mb_computed", med("lp.tableau_mb_computed"), "MB", ""},
        {"assign.total_delay_s", med("assign.total_delay_s"), "s", ""},
        {"gap.slots", med("gap.slots"), "count", ""},
        {"gap.lp_solves", med("gap.lp_solves"), "count", ""},
        {"check.certificate_s", med("check.certificate_s"), "s", ""},
        {"check.lp_resolves", med("check.lp_resolves"), "count", ""},
        {"check.lp_pivots", med("check.lp_pivots"), "count", ""},
        {"sim.fault_free_s", med("sim.fault_free_s"), "s", ""},
        {"sim.churn_s", med("sim.churn_s"), "s", ""},
        {"sim.us_per_probe", 1e6 * pooled("sim.wall", "sim.probes"), "us", ""},
        {"sim.retry_ratio", pooled("sim.retries", "sim.churn_resolved"),
         "ratio", ""},
        {"sim.timeouts", med("sim.timeouts"), "count", ""},
        {"sim.failed_accesses", med("sim.failed_accesses"), "count", ""},
        {"sim.availability",
         pooled("sim.churn_completed", "sim.churn_resolved"), "ratio", ""},
        {"exec.sweep_speedup", speedup, "ratio", ""},
        {"exec.busy_frac", busy_frac, "ratio", ""},
        {"exec.idle_s", idle_s, "s", ""},
        {"exec.chunks", pooled("exec.chunks", "instances"), "count", ""},
        {"bench.trace_overhead_frac", med("bench.trace_overhead_frac"),
         "ratio", ""},
        {"bench.kernel_ms", 1e3 * median(kernel_samples), "ms", ""},
    };
  }

  // Provenance: the pool, the instance count, and the computed working sets
  // of the workload (host and build facts are added by run.py).
  std::cout << "provenance {\"workload\": \"" << w.name
            << "\", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"pool_threads\": " << kPoolThreads
            << ", \"instances\": " << run.setup_s.size()
            << ", \"build_type\": \"" << QBENCH_BUILD_TYPE << "\""
            << ", \"compiler\": \"" << QBENCH_COMPILER << "\""
            << ", \"qplace_obs\": " << QPLACE_OBS
            << ", \"metric_bytes\": " << number(8.0 * w.nodes * w.nodes)
            << ", \"tableau_bytes_computed\": " << number(run.tableau_bytes)
            << ", \"reference_kernel_ms\": " << 1e3 * kReferenceKernelSeconds
            << ", \"kernel_ms_median\": "
            << number(1e3 * median(kernel_samples))
            << "}\n";
  for (const std::string& f : run.failures) {
    std::cout << "failure " << f << "\n";
  }
  if (args.trace) {
    if (w.layout == Layout::kRelayLp) {
      std::cout << "check relay-replay fidelity "
                << (run.fidelity_ok ? "ok" : "FAILED") << "\n";
    }
    std::cout << "check work-count determinism (1 vs 2 threads, same seed) "
              << (deterministic ? "ok" : "FAILED") << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit
              << (m.better.empty() ? "" : " (" + m.better + " is better)")
              << "\n";
  }
  std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
