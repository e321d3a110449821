// sweep_2t: the paper's Fig 3/4 grid -- sim::run_sweep over the twelve
// 2-thread mixes x {traditional, 2op_block, 2op_block_ooo} x IQ
// {32,48,64,96,128} with fairness baselines, on the thread backend at the
// figure benches' default per-cell horizon, then sim::write_sweep_json.
// Hundreds of short independent cells: per-cell construction and warm-up,
// pool scheduling, straggler cells and the baseline cache's single-flight
// all matter here.  Interval telemetry is off.
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sim/report.hpp"

namespace msimbench {
namespace {

constexpr const char* kIqSizes = "32,48,64,96,128";
constexpr std::uint32_t kProbeIq = 64;
/// Chrome-trace track of sweep worker 0 (worker threads get their own rows).
constexpr std::uint32_t kCellTrackBase = 100;

struct Sweep {
  std::string json;
  double seconds = 0.0;
  std::uint64_t committed = 0;  ///< measured-window commits over all cells
  std::vector<msim::sim::SweepCell> cells;
  std::uint64_t baseline_runs = 0;
  std::uint64_t baseline_entries = 0;
  std::uint64_t sweep_span = 0;  ///< id of the sim.run_sweep span (traced)
};

Sweep run_once(const msim::sim::SweepRequest& req, SpanRecorder* spans) {
  Sweep s;
  msim::sim::BaselineCache baselines(req.base);
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope span(spans, "sim.run_sweep");
    s.sweep_span = SpanRecorder::current();
    s.cells = msim::sim::run_sweep(req, baselines);
  }
  std::ostringstream os;
  {
    SpanRecorder::Scope span(spans, "sim.report");
    msim::sim::write_sweep_json(os, s.cells);
  }
  s.seconds = seconds_since(t0);
  s.json = os.str();
  s.baseline_runs = baselines.computations();
  s.baseline_entries = baselines.entries();
  for (const msim::sim::SweepCell& cell : s.cells) {
    for (const msim::sim::MixResult& m : cell.mixes) {
      for (const std::uint64_t c : m.raw.per_thread_committed) s.committed += c;
    }
  }
  return s;
}

/// Checks one sweep and counts its cells as operations.
void check_sweep(const Sweep& s, const std::string& reference_json,
                 Report& report) {
  std::uint64_t cells = 0;
  for (const msim::sim::SweepCell& cell : s.cells) cells += cell.mixes.size();
  const std::size_t failed = msim::sim::sweep_failures(s.cells).size();
  report.attempt(cells);
  report.fail(failed);
  report.check(failed == 0, std::to_string(failed) + " failed sweep cell(s)");
  report.check(s.baseline_runs == s.baseline_entries,
               "baseline cache ran " + std::to_string(s.baseline_runs) +
                   " simulations for " + std::to_string(s.baseline_entries) +
                   " entries (single-flight broken)");
  report.check(s.json == reference_json,
               "sweep JSON differs from the first sweep of this run");
}

}  // namespace

void run_sweep_2t(const Options& opts, Report& report) {
  const msim::KvConfig kv = kv_of({{"sweep", "2"},
                                   {"sched", "traditional,2op_block,2op_block_ooo"},
                                   {"iq", kIqSizes},
                                   {"warmup", "15000"},
                                   {"horizon", "80000"},
                                   {"seed", std::to_string(opts.seed)}});
  const msim::sim::BuiltRun built = msim::sim::build_run_config(kv);
  msim::sim::SweepRequest req = msim::sim::build_sweep_request(
      kv, built.config, /*thread_count=*/2, opts.parallelism);
  // The mixes supply the benchmarks per cell; validate the structural
  // knobs with a stand-in, as the figure benches do.
  msim::sim::RunConfig probe = req.base;
  probe.benchmarks = {"gcc"};
  probe.validate();
  std::set<std::string> names;
  for (const msim::trace::WorkloadMix& mix : msim::trace::mixes_for(2)) {
    for (const std::string_view b : mix.threads()) names.emplace(b);
  }
  for (const std::string& n : names) (void)msim::trace::profile_or_throw(n);
  if (opts.setup_only) {
    print_ready();
    return;
  }

  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<Sweep> sweeps;
  const auto loop_start = Clock::now();
  while (fits(loop_start, budget, sweeps.size(),
              sweeps.empty() ? 0.0 : sweeps.back().seconds)) {
    sweeps.push_back(run_once(req, nullptr));
    check_sweep(sweeps.back(), sweeps.front().json, report);
    sweeps.back().cells.clear();
  }
  const double loop_s = seconds_since(loop_start);
  std::vector<double> sweep_s;
  double seconds = 0.0;
  std::uint64_t committed = 0;
  for (const Sweep& s : sweeps) {
    sweep_s.push_back(s.seconds);
    seconds += s.seconds;
    committed += s.committed;
  }
  report.note("sweep_2t: " + std::to_string(sweeps.size()) + " sweep(s) of " +
              std::to_string(req.kinds.size() * req.iq_sizes.size() * 12) +
              " cells, jobs=" + std::to_string(req.jobs));
  if (!opts.trace) {
    report.metric("peak_rss_mb", peak_rss_mb_self(), "MiB");
    report.metric("sim_kips", static_cast<double>(committed) / seconds / 1e3,
                  "k-inst/s");
    report.metric("job_p50_ms", median(sweep_s) * 1e3, "ms");
    report.metric("jobs_per_s", static_cast<double>(sweeps.size()) / loop_s,
                  "jobs/s");
    return;
  }

  // Traced sweep: cell spans come from the sweep's own TimerRegistry
  // ("cell:<key>" scopes) and are re-parented under sim.run_sweep.
  SpanRecorder spans;
  msim::obs::TimerRegistry timers;
  timers.enable_spans();
  const auto timer_epoch = Clock::now();
  req.timers = &timers;
  Sweep traced;
  {
    SpanRecorder::Scope root(&spans, "bench.sweep");
    traced = run_once(req, &spans);
  }
  req.timers = nullptr;
  check_sweep(traced, sweeps.front().json, report);
  std::vector<double> cell_s;
  double cell_total = 0.0;
  for (const msim::obs::TimerRegistry::Span& t : timers.spans()) {
    if (t.name.rfind("cell:", 0) != 0) continue;
    cell_s.push_back(t.dur_s);
    cell_total += t.dur_s;
    const auto start =
        timer_epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t.start_s));
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(t.dur_s));
    spans.add("sim.cell", t.name.substr(5), traced.sweep_span, start, end,
              kCellTrackBase + t.tid);
  }
  report.metric("sim.sweep_s", median(sweep_s), "s");
  report.metric("sim.report_s", spans.total_seconds("sim.report"), "s");
  report.metric("sim.cell_s_p50", median(cell_s), "s");
  report.metric("sim.cell_s_max", percentile(cell_s, 1.0), "s");
  report.metric("sim.pool_busy_frac",
                cell_total / (traced.seconds * static_cast<double>(req.jobs)),
                "ratio");
  report.metric("sim.baseline_runs", static_cast<double>(traced.baseline_runs),
                "count");

  // Baseline cost on its own: every (benchmark, IQ) baseline of the grid,
  // computed serially into a fresh cache.
  {
    SpanRecorder::Scope span(&spans, "sim.baselines");
    msim::sim::BaselineCache baselines(req.base);
    const auto t0 = Clock::now();
    for (const std::string& n : names) {
      for (const std::uint32_t iq : req.iq_sizes) (void)baselines.alone_ipc(n, iq);
    }
    report.metric("sim.baseline_s", seconds_since(t0), "s");
  }

  // Construct / warm-up / measure split of one cell per mix
  // (2op_block_ooo at IQ 64), driven directly; each digest must equal the
  // sweep's own result for that cell.
  const msim::sim::SweepCell& cell = msim::sim::cell_for(
      traced.cells, msim::core::SchedulerKind::kTwoOpBlockOoo, kProbeIq);
  std::vector<Drive> drives;
  for (const msim::trace::WorkloadMix& mix : msim::trace::mixes_for(2)) {
    msim::sim::RunConfig cfg = req.base;
    cfg.benchmarks.assign(mix.threads().begin(), mix.threads().end());
    cfg.kind = msim::core::SchedulerKind::kTwoOpBlockOoo;
    cfg.iq_entries = kProbeIq;
    cfg.seed = msim::derive_stream_seed(
        req.base.seed, std::string("mix:").append(mix.name), kProbeIq);
    report.attempt();
    const Drive& d = drives.emplace_back(drive(cfg, &spans, std::string(mix.name)));
    bool same = false;
    for (const msim::sim::MixResult& m : cell.mixes) {
      if (m.mix_name == mix.name) same = m.raw.commit_digest == d.digest;
    }
    report.check(same, std::string(mix.name) +
                           ": directly driven cell digest differs from the sweep's");
    if (!same) report.fail();
  }
  report_drives(drives, report);
  report.metric("bench.trace_overhead_frac",
                (traced.seconds - median(sweep_s)) / median(sweep_s), "ratio");
  report_spans(opts, spans, report);
}

}  // namespace msimbench
