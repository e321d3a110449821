// exact_4t: one exact sim::run_simulation per scheduler kind on the 4-thread
// mix gzip,equake,gcc,mesa at IQ 64, with interval telemetry on, each
// followed by sim::write_run_json.  The detailed pipeline does almost all
// the work; it is the only workload with the interval engine enabled.
// The kinds run one after another on one thread, as msim_cli runs them.
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "sim/report.hpp"
#include "smt/pipeline.hpp"

namespace msimbench {
namespace {

constexpr const char* kKinds[] = {"traditional", "2op_block", "2op_block_ooo"};
constexpr const char* kOoo = "2op_block_ooo";
/// Input seeds per run (see input_seed()).
constexpr std::size_t kInputs = 8;
/// One in this many Pipeline::tick() calls is timed in the traced run.
constexpr std::uint64_t kTickSampleEvery = 64;

/// Simulated counters reported per kind in the traced run.  They repeat
/// exactly for a given seed; a speed-only change leaves them identical.
struct SimulatedMetric {
  const char* name;
  const char* unit;
};
constexpr SimulatedMetric kSimulatedMetrics[] = {
    {"pipeline.cycles", "cycles"},
    {"pipeline.committed", "count"},
    {"pipeline.total_ipc", "inst/cycle"},
    {"pipeline.issued", "count"},
    {"scheduler.iq.wakeups", "count"},
    {"scheduler.iq.comparator_ops", "count"},
    {"scheduler.iq.mean_occupancy", "entries"},
    {"scheduler.dispatch.ooo_dispatches", "count"},
    {"scheduler.dispatch.ndi_blocked_thread_cycles", "cycles"},
    {"scheduler.dispatch.dab_inserts", "count"},
    {"mem.l1d.misses", "count"},
    {"mem.l2.misses", "count"},
    {"bpred.mispredicts", "count"},
    {"interval.captured", "count"},
};

msim::sim::BuiltRun exact_config(const std::string& kind, std::uint64_t seed,
                                 bool intervals) {
  return build_config({{"benchmarks", "gzip,equake,gcc,mesa"},
                       {"sched", kind},
                       {"iq", "64"},
                       {"warmup", "100000"},
                       {"horizon", "1000000"},
                       {"seed", std::to_string(seed)},
                       {"interval", intervals ? "10000" : "0"}});
}

}  // namespace

Drive drive(const msim::sim::RunConfig& cfg, SpanRecorder* spans,
            const std::string& request) {
  Drive d;
  SpanRecorder::Scope root(spans, "bench.drive", request);
  const auto profiles = load_profiles(cfg);
  std::optional<msim::smt::Pipeline> pipe;
  auto t = Clock::now();
  {
    SpanRecorder::Scope s(spans, "smt.construct", request);
    pipe.emplace(cfg.machine(), profiles, cfg.seed);
  }
  d.construct_s = seconds_since(t);
  t = Clock::now();
  {
    SpanRecorder::Scope s(spans, "smt.warmup", request);
    pipe->run(cfg.warmup, cfg.max_cycles);
  }
  d.warmup_s = seconds_since(t);
  {
    SpanRecorder::Scope s(spans, "smt.reset_stats", request);
    pipe->reset_stats();
  }
  auto reached = [&] {
    for (msim::ThreadId tid = 0; tid < pipe->thread_count(); ++tid) {
      if (pipe->committed(tid) >= cfg.horizon) return true;
    }
    return false;
  };
  t = Clock::now();
  {
    SpanRecorder::Scope s(spans, "smt.measure", request);
    for (std::uint64_t n = 0; !reached(); ++n) {
      if (n % kTickSampleEvery == 0) {
        const auto t0 = Clock::now();
        pipe->tick();
        d.tick_ns.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
      } else {
        pipe->tick();
      }
    }
  }
  d.measure_s = seconds_since(t);
  d.measured_committed = pipe->total_committed();
  d.cycles = pipe->cycles();
  d.digest = pipe->commit_digest();
  return d;
}

void report_drives(const std::vector<Drive>& drives, Report& report) {
  double construct_s = 0.0, warmup_s = 0.0, measure_s = 0.0;
  std::uint64_t cycles = 0, committed = 0;
  std::vector<double> tick_ns;
  for (const Drive& d : drives) {
    construct_s += d.construct_s;
    warmup_s += d.warmup_s;
    measure_s += d.measure_s;
    cycles += d.cycles;
    committed += d.measured_committed;
    tick_ns.insert(tick_ns.end(), d.tick_ns.begin(), d.tick_ns.end());
  }
  report.metric("smt.construct_s", construct_s, "s");
  report.metric("smt.warmup_s", warmup_s, "s");
  report.metric("smt.measure_s", measure_s, "s");
  report.metric("smt.tick_ns_p50", percentile(tick_ns, 0.50), "ns");
  report.metric("smt.tick_ns_p99", percentile(tick_ns, 0.99), "ns");
  report.metric("smt.host_ns_per_cycle",
                measure_s * 1e9 / static_cast<double>(cycles), "ns");
  report.metric("smt.host_ns_per_inst",
                measure_s * 1e9 / static_cast<double>(committed), "ns");
}

namespace {

/// One (kind, input seed) configuration and what its runs measured.
struct Case {
  std::string kind;
  msim::sim::BuiltRun built;
  std::vector<double> run_s;
  std::vector<double> report_s;
  std::uint64_t committed = 0;  ///< measured-window commits of one run
  std::optional<msim::sim::RunResult> first;
};

std::uint64_t sum(const std::vector<std::uint64_t>& xs) {
  std::uint64_t total = 0;
  for (const std::uint64_t x : xs) total += x;
  return total;
}

struct Sample {
  msim::sim::RunResult result;
  double run_s = 0.0;
  double report_s = 0.0;
  bool json_ok = false;
};

/// One timed run_simulation + write_run_json.
Sample timed_run(const msim::sim::RunConfig& cfg) {
  Sample smp;
  const auto t0 = Clock::now();
  smp.result = msim::sim::run_simulation(cfg);
  smp.run_s = seconds_since(t0);
  std::ostringstream json;
  const auto t1 = Clock::now();
  msim::sim::write_run_json(json, cfg, smp.result);
  smp.report_s = seconds_since(t1);
  smp.json_ok = !json.str().empty();
  return smp;
}

bool same_metrics(const std::vector<msim::obs::MetricSnapshot>& a,
                  const std::vector<msim::obs::MetricSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) return false;
  }
  return true;
}

}  // namespace

void run_exact_4t(const Options& opts, Report& report) {
  // cases[input * 3 + kind]; round r runs the three kinds of input r % kInputs.
  std::vector<Case> cases;
  for (std::size_t input = 0; input < kInputs; ++input) {
    for (const char* kind : kKinds) {
      Case c;
      c.kind = kind;
      c.built = exact_config(kind, input_seed(opts.seed, input), /*intervals=*/true);
      (void)load_profiles(c.built.config);
      cases.push_back(std::move(c));
    }
  }
  const std::size_t n_kinds = std::size(kKinds);
  if (opts.setup_only) {
    print_ready();
    return;
  }

  // Timed loop: rounds of the three kinds until the budget is spent.  A
  // round -- one run_simulation + write_run_json per kind -- is the job
  // whose latency job_p50_ms reports.  In the traced run half the budget
  // goes to this untraced loop.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::size_t runs = 0;
  std::vector<double> round_s;
  std::vector<double> seed_round_s;  ///< rounds of the --seed input
  double run_seconds = 0.0;
  std::uint64_t committed_total = 0;
  const auto loop_start = Clock::now();
  while (fits(loop_start, budget, round_s.size(),
              round_s.empty() ? 0.0 : round_s.back())) {
    Case* round_cases = &cases[(round_s.size() % kInputs) * n_kinds];
    const auto round_start = Clock::now();
    for (std::size_t i = 0; i < n_kinds; ++i) {
      Case& c = round_cases[i];
      Sample smp = timed_run(c.built.config);
      report.attempt();
      ++runs;
      c.run_s.push_back(smp.run_s);
      c.report_s.push_back(smp.report_s);
      run_seconds += smp.run_s;
      committed_total += sum(smp.result.per_thread_committed);
      bool ok = !smp.result.truncated && smp.json_ok;
      if (!c.first) {
        c.committed = sum(smp.result.per_thread_committed);
        c.first = std::move(smp.result);
      } else {
        ok = ok && smp.result.commit_digest == c.first->commit_digest &&
             same_metrics(smp.result.metrics, c.first->metrics);
        report.check(ok, c.kind + ": a repeated run_simulation changed its "
                                  "commit digest or simulated metrics");
      }
      if (!ok) report.fail();
    }
    const double secs = seconds_since(round_start);
    if (round_s.size() % kInputs == 0) seed_round_s.push_back(secs);
    round_s.push_back(secs);
  }
  const double loop_s = seconds_since(loop_start);

  // Correctness reference: drive the --seed input's Pipelines directly
  // (this is the traced pass in the traced run).
  std::unique_ptr<SpanRecorder> spans;
  if (opts.trace) spans = std::make_unique<SpanRecorder>();
  std::vector<Drive> drives;
  const auto traced_start = Clock::now();
  for (std::size_t i = 0; i < n_kinds; ++i) {
    drives.push_back(drive(cases[i].built.config, spans.get(), cases[i].kind));
  }
  const double traced_wall = seconds_since(traced_start);
  for (std::size_t i = 0; i < n_kinds; ++i) {
    report.attempt();
    const bool same = drives[i].digest == cases[i].first->commit_digest &&
                      drives[i].measured_committed == cases[i].committed;
    report.check(same, cases[i].kind + ": directly driven Pipeline digest "
                                       "differs from run_simulation's");
    if (!same) report.fail();
  }

  report.note("exact_4t: " + std::to_string(round_s.size()) +
              " round(s) of 3 kinds over " + std::to_string(kInputs) +
              " input seeds, " + std::to_string(runs) + " runs");
  if (!opts.trace) {
    report.metric("peak_rss_mb", peak_rss_mb_self(), "MiB");
    report.metric("sim_kips", static_cast<double>(committed_total) / run_seconds / 1e3,
                  "k-inst/s");
    report.metric("job_p50_ms", median(round_s) * 1e3, "ms");
    report.metric("jobs_per_s", static_cast<double>(round_s.size()) / loop_s, "jobs/s");
    return;
  }

  // Traced run: per-layer metrics.
  report_drives(drives, report);
  std::vector<double> report_s;
  for (std::size_t k = 0; k < n_kinds; ++k) {
    std::vector<double> run_s;
    for (const Case& c : cases) {
      if (c.kind != kKinds[k]) continue;
      run_s.insert(run_s.end(), c.run_s.begin(), c.run_s.end());
      report_s.insert(report_s.end(), c.report_s.begin(), c.report_s.end());
    }
    report.metric("sim.run_s." + std::string(kKinds[k]), median(run_s), "s");
  }
  report.metric("sim.report_s", median(report_s), "s");

  // Interval-engine cost: the 2op_block_ooo run with and without
  // interval_cycles, alternated (with, without, without, with) so host
  // drift cancels.
  const msim::sim::BuiltRun plain = exact_config(kOoo, opts.seed, /*intervals=*/false);
  const Case& ooo = cases[n_kinds - 1];
  const msim::sim::RunConfig& with = ooo.built.config;
  double with_s = 0.0;
  double plain_s = 0.0;
  std::optional<msim::sim::RunResult> plain_result;
  for (const msim::sim::RunConfig* cfg : {&with, &plain.config, &plain.config, &with}) {
    report.attempt();
    Sample smp = timed_run(*cfg);
    (cfg == &with ? with_s : plain_s) += smp.run_s / 2;
    const bool ok = smp.result.intervals.empty() == (cfg != &with) &&
                    smp.result.commit_digest == ooo.first->commit_digest;
    report.check(ok, "interval telemetry changed the simulated run, or capture "
                     "does not follow interval_cycles");
    if (!ok) report.fail();
    if (cfg == &plain.config) plain_result = std::move(smp.result);
  }
  report.metric("obs.interval_overhead_s", with_s - plain_s, "s");

  for (std::size_t k = 0; k < n_kinds; ++k) {
    for (const SimulatedMetric& sm : kSimulatedMetrics) {
      bool found = false;
      for (const msim::obs::MetricSnapshot& m : cases[k].first->metrics) {
        if (m.name == sm.name) {
          report.metric(cases[k].kind + "." + sm.name, m.value, sm.unit);
          found = true;
        }
      }
      report.check(found, "simulated metric " + std::string(sm.name) + " missing");
    }
  }
  report.metric("bench.trace_overhead_frac",
                (traced_wall - median(seed_round_s)) / median(seed_round_s), "ratio");
  // sampled_4t is not one of BENCHMARK.json's workloads (README.md), so
  // mode=sampled and the layers it is built from are probed here, on the
  // interval-free 2op_block_ooo run just timed as the exact reference.
  probe_sampling_layers(plain.config, *spans, report);
  probe_sampled_mode(plain.config, *plain_result, *spans, report);
  report_spans(opts, *spans, report);
}

}  // namespace msimbench
