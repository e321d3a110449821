// Shared pieces of the repository benchmark: command-line options, the
// per-run report (metrics, operation accounting, correctness), summary
// statistics, and the span recorder used by traced runs.
//
// The benchmark measures the simulator from outside: every span wraps a
// call into a public entry point of one module (sim, smt, trace, persist,
// ...), never code inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/config_build.hpp"
#include "sim/run.hpp"
#include "trace/profile.hpp"

namespace msimbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop right after set-up and print the ready timestamp (set-up probes).
  bool setup_only = false;
  /// Scratch space inside the checkout (Chrome traces).
  std::string work_dir;
  /// Sweep worker threads: min(nproc, 4).
  unsigned parallelism = 4;
};

/// One run's outcome.  Metrics keep insertion order for printing.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A value printed for the reader but not part of the JSON metrics.
  void note(const std::string& line);
  /// Records a failed correctness check; the run then exits non-zero.
  void check(bool ok, const std::string& what);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const { return errors_.empty(); }
  /// Human-readable lines, then the JSON result as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double percentile(std::vector<double> xs, double q);

// ---- span recorder ---------------------------------------------------------

/// In-memory span log for traced runs.  A span has a name ("<layer>.<op>"),
/// a start and end, the span that was open on the same thread when it
/// began (its parent), and a request/cell id shared by the spans of one
/// request.  Spans are written at exit as Chrome trace-event JSON; each
/// layer's self time is its spans' durations minus the time their child
/// spans cover.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string request;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t tid = 0;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  SpanRecorder();

  /// RAII span.  A null recorder makes it a no-op, so untraced runs share
  /// the code path without recording anything.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name, std::string request = "");
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
    std::uint64_t saved_parent_ = 0;
  };

  /// Records an already-finished span under an explicit parent (used for
  /// phases whose boundaries are observed, not scoped).  `track` overrides
  /// the calling thread's Chrome-trace row.
  std::uint64_t add(std::string name, std::string request, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::optional<std::uint32_t> track = std::nullopt);
  /// Id of the innermost open Scope on this thread (0 = none).
  [[nodiscard]] static std::uint64_t current();

  [[nodiscard]] std::vector<Span> spans() const;
  /// Self seconds per layer (the span-name prefix before the first '.').
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;
  /// Total seconds of the spans with exactly this name.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  std::uint32_t thread_index();

  mutable std::mutex mu_;  ///< guards spans_, next_id_, threads_
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::uint32_t> threads_;
  Clock::time_point epoch_;
};

// ---- helpers shared by the workloads --------------------------------------

/// Builds a run configuration through the same key=value builder msim_cli
/// and msim_serve use, then validates it.
[[nodiscard]] msim::sim::BuiltRun build_config(
    const std::vector<std::pair<std::string, std::string>>& knobs);
[[nodiscard]] msim::KvConfig kv_of(
    const std::vector<std::pair<std::string, std::string>>& knobs);
/// The benchmark profiles of `cfg`, one per hardware thread.
[[nodiscard]] std::vector<msim::trace::BenchmarkProfile> load_profiles(
    const msim::sim::RunConfig& cfg);

/// The simulator seed of a run's input number `input`: --seed itself for
/// input 0, derived streams after that.  Workloads cycle through several
/// inputs so one run's timings depend less on how long one seed's
/// instruction streams happen to run.
[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, std::size_t input);

/// True while another operation of about `typical_s` seconds still fits in
/// the budget; the first operation always runs.
[[nodiscard]] bool fits(Clock::time_point start, double budget_s,
                        std::size_t done, double typical_s);

/// One directly driven smt::Pipeline run.
struct Drive {
  std::uint64_t digest = 0;
  std::uint64_t measured_committed = 0;
  std::uint64_t cycles = 0;
  double construct_s = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  std::vector<double> tick_ns;  ///< one sampled Pipeline::tick() in 64
};

/// Drives smt::Pipeline the way sim::run_simulation does -- construct,
/// run(warmup), reset_stats, then ticks until a thread reaches the horizon
/// -- timing each phase under smt.* spans tagged with `request`.  Its
/// digest must equal run_simulation's for the same configuration.
[[nodiscard]] Drive drive(const msim::sim::RunConfig& cfg, SpanRecorder* spans,
                          const std::string& request);

/// Adds the smt.* per-layer metrics of a set of directly driven runs.
void report_drives(const std::vector<Drive>& drives, Report& report);

/// Times the building blocks of mode=sampled on `cfg`'s machine: the
/// functional fast path (smt.functional_ns_per_inst), trace generation
/// (trace.gen_ns_per_inst) and Pipeline save/load through an in-memory
/// persist::Archive on a warmed pipeline (persist.archive_{save,load}_us).
void probe_sampling_layers(const msim::sim::RunConfig& cfg, SpanRecorder& spans,
                           Report& report);

/// Runs sim::run_sampled + sim::write_sampled_json on `cfg` twice (untraced,
/// then traced), checks that both passes agree byte for byte, and reports
/// the sim.sampled.* metrics and sim.run_s.sampled; `exact` is the exact
/// run_simulation of the same `cfg`, the reference of sim.sampled.ipc_err_pct.
void probe_sampled_mode(const msim::sim::RunConfig& cfg,
                        const msim::sim::RunResult& exact, SpanRecorder& spans,
                        Report& report);

// ---- workloads -------------------------------------------------------------

// Each workload runs its set-up, returns early under --setup-only (after
// printing the ready timestamp), then measures for opts.seconds, checks
// its outputs, and fills `report`: end-to-end metrics when untraced,
// per-layer metrics from an added traced pass under --trace 1.
void run_exact_4t(const Options& opts, Report& report);
void run_sweep_2t(const Options& opts, Report& report);

/// Prints "ready_ns <steady-clock ns>" for the set-up probe.
void print_ready();

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb_self();

/// Writes the recorder's spans to <work_dir>/<workload>.trace.json and
/// reports every layer's self time as "<layer>.self_s".
void report_spans(const Options& opts, const SpanRecorder& spans, Report& report);

}  // namespace msimbench
