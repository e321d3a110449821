// Process-level sweep execution: fork workers, supervise them, survive them.
//
// SweepSupervisor runs a sweep grid across forked worker processes so that a
// crashing or hanging cell (simulator bug, OOM kill, injected chaos fault)
// takes down one worker instead of the whole sweep.  Each worker owns a
// deterministic shard of the grid (cell i -> slot i % workers, in grid
// order) and reports over a pipe (worker_protocol.hpp); the supervisor
// watches heartbeats and per-cell wall-clock budgets, SIGKILLs workers that
// hang, reaps workers that die, and respawns them after a deterministic
// exponential backoff (backoff.hpp).  A cell whose worker dies too many
// times is marked exhausted and surfaces as a SupervisorFailure with a
// diagnostic bundle; every other cell's result is byte-identical to a
// fault-free run at any worker count, because cells never share mutable
// state and the shard assignment depends only on the grid.
//
// Durability: when a journal path is configured, each worker appends
// finished cells to its own shard journal `<path>.shard<slot>` (the sweep
// journal format, persist/journal.hpp).  A respawned worker replays its shard
// before running anything, so work journaled just before a death is never
// repeated even if the CellDone message was lost with the pipe.  The
// caller (sim::run_sweep) merges shards into the main journal in fixed
// grid order once the sweep finishes.
//
// The supervisor is policy-free about what a cell *is*: the caller supplies
// a CellFn that runs one cell inside the worker process and returns an
// opaque payload (an encoded MixResult, in practice).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "robust/backoff.hpp"
#include "robust/worker_protocol.hpp"

namespace msim::obs {
class ProgressBus;
}

namespace msim::robust {

/// What one cell produced inside a worker.  `payload` is opaque to the
/// supervisor and only meaningful when `ok`; `error`/`attempts` describe an
/// in-worker failure, which is separate from the supervisor's own death
/// accounting.
struct CellOutcome {
  bool ok = true;
  std::string error;
  std::uint32_t attempts = 1;
  std::vector<std::uint8_t> payload;
};

/// Runs one grid cell.  Invoked inside the worker process only; must not
/// throw (wrap failures into an ok=false outcome).
using CellFn = std::function<CellOutcome(std::size_t cell)>;

/// Liveness and respawn policy.  Defaults suit tests; real sweeps mostly
/// stretch heartbeat_timeout_ms.
struct SupervisorTuning {
  std::uint64_t heartbeat_interval_ms = 25;  ///< worker beat period
  std::uint64_t heartbeat_timeout_ms = 2000; ///< silence before SIGKILL
  BackoffPolicy backoff;                     ///< respawn delay policy
};

struct SupervisorConfig {
  std::size_t total_cells = 0;
  unsigned workers = 1;
  /// Supervisor-level retries per cell: a cell may see `retries` worker
  /// deaths and still succeed on the next incarnation; one more death
  /// exhausts it.
  unsigned retries = 0;
  /// Wall-clock budget per cell (0 = unlimited).  A worker exceeding it on
  /// one cell is SIGKILLed and the death is charged to that cell.
  std::uint64_t cell_timeout_ms = 0;
  SupervisorTuning tuning;
  /// Deterministic fault-injection schedule executed by the workers.
  ChaosPlan chaos;
  /// Main journal path; shards live at `<path>.shard<slot>`.  Empty
  /// disables worker-side journaling (respawns then rely on the
  /// supervisor's in-memory done set alone).
  std::string journal_path;
  std::uint64_t journal_fingerprint = 0;
  /// Cells already completed before this run (journal resume): never
  /// assigned to a worker.
  std::vector<std::size_t> completed;
  /// Poll persist::signal_pending() and convert SIGINT/SIGTERM into
  /// kill-all-workers + persist::Interrupted.
  bool watch_signals = false;
  /// Cooperative per-sweep cancellation (sim::RunConfig::cancel, the serve
  /// daemon): when the flag goes true the supervisor SIGKILLs and reaps
  /// every worker, then throws persist::Cancelled.  Journaled shard cells
  /// survive on disk, so a resumed sweep replays them.  Not owned, may be
  /// nullptr.
  const std::atomic<bool>* cancel = nullptr;
  obs::ProgressBus* progress_bus = nullptr;  ///< optional, not owned
  /// Human-readable cell key; doubles as the shard-journal entry key, so it
  /// must match the key the caller uses for journal replay.
  std::function<std::string(std::size_t)> cell_label;
};

/// A cell that exhausted its supervisor-level retries.
struct SupervisorFailure {
  std::size_t cell = 0;
  std::string error;       ///< one-line cause ("worker killed by signal 9 ...")
  std::uint32_t attempts = 0;  ///< worker deaths charged to this cell
  std::string diag;        ///< JSON diagnostic bundle (slot, deaths, reason)
};

struct SupervisorReport {
  /// Outcomes for every cell that ran (or replayed from a shard journal)
  /// under this supervisor, keyed by grid index.  Excludes
  /// `config.completed` cells and exhausted cells.
  std::map<std::size_t, CellOutcome> outcomes;
  std::vector<SupervisorFailure> process_failures;
  unsigned workers_spawned = 0;  ///< forks, including respawns
  unsigned worker_deaths = 0;    ///< unexpected exits (signals, crashes)
};

class SweepSupervisor {
 public:
  explicit SweepSupervisor(SupervisorConfig config);

  /// Runs the sweep to completion: every cell not in `config.completed`
  /// ends up either in `outcomes` or in `process_failures`.  Throws
  /// persist::Interrupted (after killing and reaping all workers) when
  /// watch_signals is set and a signal arrives.
  SupervisorReport run(const CellFn& cell_fn);

  /// `<journal_path>.shard<slot>`: one worker's private journal.
  [[nodiscard]] static std::string shard_path(const std::string& journal_path,
                                              unsigned slot);

 private:
  SupervisorConfig config_;
};

}  // namespace msim::robust
