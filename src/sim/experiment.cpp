#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "persist/journal.hpp"
#include "persist/signal.hpp"
#include "robust/supervisor.hpp"

namespace msim::sim {

BaselineCache::BaselineCache(RunConfig base, const std::vector<BaselineEntry>& known)
    : base_(std::move(base)) {
  for (const BaselineEntry& e : known) done_[{e.benchmark, e.iq_entries}] = e.ipc;
}

double BaselineCache::alone_ipc(std::string_view benchmark, std::uint32_t iq_entries) {
  const Key key(std::string(benchmark), iq_entries);
  std::optional<std::promise<double>> promise;  // set when this thread simulates
  std::shared_future<double> flight;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = done_.find(key); it != done_.end()) return it->second;
    const auto [it, inserted] = in_flight_.try_emplace(key);
    if (inserted) it->second = promise.emplace().get_future().share();
    flight = it->second;
  }

  if (!promise) {
    // Another thread is simulating this key; block on its flight only.
    try {
      return flight.get();
    } catch (const std::exception& e) {
      throw std::runtime_error("baseline simulation failed for '" + key.first +
                               "': " + e.what());
    }
  }

  try {
    RunConfig cfg = base_;
    cfg.benchmarks = {key.first};
    cfg.kind = core::SchedulerKind::kTraditional;
    cfg.iq_entries = iq_entries;
    cfg.seed = derive_stream_seed(base_.seed, "baseline:" + key.first, iq_entries);
    const RunResult result = run_simulation(cfg);
    MSIM_CHECK(result.throughput_ipc > 0.0);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_.emplace(key, result.throughput_ipc);
      in_flight_.erase(key);
      ++computations_;
    }
    promise->set_value(result.throughput_ipc);
    return result.throughput_ipc;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      in_flight_.erase(key);  // a later request may retry
    }
    promise->set_exception(std::current_exception());  // waiters rethrow it
    throw;
  }
}

std::size_t BaselineCache::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

std::uint64_t BaselineCache::computations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return computations_;
}

std::vector<BaselineEntry> BaselineCache::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<BaselineEntry> out;
  out.reserve(done_.size());
  for (const auto& [key, ipc] : done_) {
    out.push_back({key.first, key.second, ipc});
  }
  return out;
}

MixResult run_mix(const trace::WorkloadMix& mix, core::SchedulerKind kind,
                  std::uint32_t iq_entries, const RunConfig& base,
                  BaselineCache& baselines) {
  RunConfig cfg = base;
  cfg.benchmarks.clear();
  for (const std::string_view bench : mix.threads()) {
    cfg.benchmarks.emplace_back(bench);
  }
  cfg.kind = kind;
  cfg.iq_entries = iq_entries;
  // One stream per (mix, iq): independent of scheduler kind so competing
  // schedulers see identical workload randomness, and independent of
  // execution order so parallel sweeps reproduce serial ones bit-for-bit.
  cfg.seed = derive_stream_seed(base.seed, std::string("mix:").append(mix.name),
                                iq_entries);

  MixResult out;
  out.mix_name = mix.name;
  out.raw = run_simulation(cfg);
  out.throughput_ipc = out.raw.throughput_ipc;

  std::vector<double> alone;
  alone.reserve(cfg.benchmarks.size());
  for (const std::string& bench : cfg.benchmarks) {
    alone.push_back(baselines.alone_ipc(bench, iq_entries));
  }
  out.fairness = hmean_weighted_ipc(out.raw.per_thread_ipc, alone);
  return out;
}

namespace {

// ---- journal payload codec -------------------------------------------------
//
// A journaled cell must replay byte-identically into the sweep JSON and the
// aggregates, so the codec covers the complete MixResult — every RunResult
// field, not just the ones today's reports read.

void io_cache_stats(persist::Archive& ar, mem::CacheStats& s) {
  ar.io(s.accesses);
  ar.io(s.misses);
  ar.io(s.coalesced_misses);
  ar.io(s.mshr_stall_cycles);
  ar.io(s.dirty_evictions);
}

void io_run_result(persist::Archive& ar, RunResult& r) {
  ar.section("run_result");
  ar.io(r.cycles);
  ar.io(r.per_thread_ipc);
  ar.io(r.per_thread_committed);
  ar.io(r.throughput_ipc);
  ar.io(r.commit_digest);

  core::DispatchStats& d = r.dispatch;
  ar.io(d.cycles);
  ar.io(d.dispatched);
  for (std::uint64_t& v : d.dispatched_by_nonready) ar.io(v);
  ar.io(d.no_dispatch_cycles);
  ar.io(d.all_threads_ndi_stall_cycles);
  ar.io(d.ndi_blocked_thread_cycles);
  ar.io(d.iq_full_thread_cycles);
  ar.io(d.behind_ndi_examined);
  ar.io(d.behind_ndi_hdis);
  ar.io(d.ooo_dispatches);
  ar.io(d.ooo_dispatches_dependent);
  ar.io(d.filtered_suppressed);
  ar.io(d.dab_inserts);
  ar.io(d.dab_issues);
  ar.io(d.watchdog_flushes);
  ar.io(d.fault_forced_ndis);
  ar.io(d.fault_iq_denials);
  ar.io(d.fault_dropped_dispatches);

  core::IqStats& q = r.iq;
  ar.io(q.dispatched);
  ar.io(q.issued);
  ar.io(q.broadcasts);
  ar.io(q.wakeups);
  ar.io(q.comparator_ops);
  ar.io(q.occupancy_integral);
  ar.io(q.occupancy_samples);
  if (ar.saving()) {
    q.residency.save_state(ar);
  } else {
    q.residency.load_state(ar);
  }
  ar.io(r.iq_mean_occupancy);

  io_cache_stats(ar, r.memory.l1i);
  io_cache_stats(ar, r.memory.l1d);
  io_cache_stats(ar, r.memory.l2);
  ar.io(r.memory.memory_accesses);

  ar.io(r.bpred.branches);
  ar.io(r.bpred.mispredicts);

  smt::PipelineStats& p = r.pipeline;
  ar.io(p.issued);
  ar.io(p.load_issue_blocked);
  ar.io(p.fetch_icache_stall_cycles);
  ar.io(p.watchdog_flushed_instructions);
  ar.io(p.fetch_l2_gated);
  ar.io(p.policy_flushes);
  ar.io(p.policy_flushed_instructions);
  ar.io(p.wrong_path_fetched);
  ar.io(p.wrong_path_issued);
  ar.io(p.wrong_path_squashes);
  ar.io(p.fault_commit_blocked_cycles);
  ar.io(p.fault_rob_denials);
  ar.io(p.fault_lsq_denials);
  ar.io(p.fault_extra_latency_cycles);

  ar.io(r.truncated);
  ar.io_sequence(r.metrics, [](persist::Archive& a, obs::MetricSnapshot& m) {
    a.io(m.name);
    a.io(m.kind);
    a.io(m.value);
    a.io(m.events);
    a.io(m.opportunities);
    a.io(m.count);
    a.io(m.min);
    a.io(m.max);
    a.io(m.stddev);
    a.io(m.p50);
    a.io(m.p90);
    a.io(m.p99);
  });
  ar.io_sequence(r.trace, [](persist::Archive& a, obs::TraceEvent& e) {
    a.io(e.cycle);
    a.io(e.seq);
    a.io(e.tid);
    a.io(e.stage);
    a.io(e.flags);
  });
  ar.io(r.trace_dropped);
  ar.io_sequence(r.intervals, obs::io_interval_record);
  ar.io(r.intervals_dropped);
}

void io_mix_result(persist::Archive& ar, MixResult& m) {
  ar.section("mix_result");
  ar.io(m.mix_name);
  ar.io(m.throughput_ipc);
  ar.io(m.fairness);
  ar.io(m.ok);
  ar.io(m.error);
  ar.io(m.attempts);
  ar.io(m.diag);
  io_run_result(ar, m.raw);
}

std::vector<std::uint8_t> encode_mix_result(const MixResult& m) {
  persist::Archive ar = persist::Archive::saver();
  io_mix_result(ar, const_cast<MixResult&>(m));
  return ar.bytes();
}

MixResult decode_mix_result(const std::vector<std::uint8_t>& payload) {
  persist::Archive ar = persist::Archive::loader(payload);
  MixResult m;
  io_mix_result(ar, m);
  ar.expect_end();
  return m;
}

/// Hash of everything that defines the sweep's grid and its cells' inputs.
/// Deliberately excludes jobs / progress / isolation: those change how the
/// sweep executes, never what a completed cell contains, and a journal must
/// resume at any job count.
std::uint64_t sweep_fingerprint(const SweepRequest& request) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(request.base.fingerprint());
  mix(request.thread_count);
  mix(request.kinds.size());
  for (const core::SchedulerKind kind : request.kinds) {
    mix(static_cast<std::uint64_t>(kind));
  }
  mix(request.iq_sizes.size());
  for (const std::uint32_t iq : request.iq_sizes) mix(iq);
  return h;
}

SweepCell aggregate_cell(core::SchedulerKind kind, std::uint32_t iq,
                         std::vector<MixResult> mixes) {
  SweepCell cell;
  cell.kind = kind;
  cell.iq_entries = iq;
  std::vector<double> ipcs;
  std::vector<double> fairs;
  StreamingStat stall;
  StreamingStat residency;
  // Failed mixes (crash isolation) are excluded from every aggregate; with
  // nothing surviving, the means degrade to 0.
  for (const MixResult& m : mixes) {
    if (!m.ok) continue;
    ipcs.push_back(m.throughput_ipc);
    fairs.push_back(m.fairness);
    stall.add(m.raw.dispatch.all_stall_fraction());
    residency.add(m.raw.iq.mean_residency());
  }
  cell.hmean_ipc = harmonic_mean(ipcs);
  cell.hmean_fairness = harmonic_mean(fairs);
  cell.mean_all_stall_fraction = stall.mean();
  cell.mean_iq_residency = residency.mean();
  cell.mixes = std::move(mixes);
  return cell;
}

/// `config` for a forked worker: no progress bus (its sinks belong to the
/// parent), no signal watching (the supervisor owns shutdown) and no cancel
/// flag (a forked copy is frozen; the supervisor polls it and kills).
RunConfig detached_for_fork(RunConfig config) {
  config.progress_bus = nullptr;
  config.watch_signals = false;
  config.cancel = nullptr;
  return config;
}

/// The worker shards of journal `path` on disk: `<path>.shard0`, `.shard1`,
/// ... up to the first missing one.
std::vector<std::string> shards_of(const std::string& path) {
  std::vector<std::string> shards;
  for (unsigned k = 0;
       std::filesystem::exists(robust::SweepSupervisor::shard_path(path, k)); ++k) {
    shards.push_back(robust::SweepSupervisor::shard_path(path, k));
  }
  return shards;
}

}  // namespace

std::vector<SweepCell> run_sweep(const SweepRequest& request, BaselineCache& baselines) {
  MSIM_CHECK(!request.iq_sizes.empty());
  MSIM_CHECK(request.jobs >= 1);
  const bool process = request.isolation == SweepIsolation::kProcess;
  if (process && !request.isolate_failures) {
    throw std::invalid_argument(
        "isolation=process requires isolate (the supervisor degrades worker "
        "deaths into per-cell failures, which only partial results can report)");
  }
  for (const auto& [set, knob] : {std::pair{request.workers != 0, "workers="},
                                  {request.cell_timeout_ms != 0, "cell_timeout_ms="},
                                  {!request.chaos.empty(), "chaos="}}) {
    if (set && !process) {
      throw std::invalid_argument(std::string(knob) + " requires isolation=process");
    }
  }
  const auto mixes = trace::mixes_for(request.thread_count);

  // The traditional scheduler anchors every speedup; ensure it is present.
  std::vector<core::SchedulerKind> kinds = request.kinds;
  const bool traditional_requested =
      std::find(kinds.begin(), kinds.end(), core::SchedulerKind::kTraditional) !=
      kinds.end();
  if (!traditional_requested) {
    kinds.insert(kinds.begin(), core::SchedulerKind::kTraditional);
  }

  // Flatten the grid kind-major (request order), then iq, then mix: this
  // fixed enumeration is both the work list and the aggregation order, so
  // results never depend on which worker finishes first.
  struct GridPoint {
    core::SchedulerKind kind;
    std::uint32_t iq;
    const trace::WorkloadMix* mix;
  };
  std::vector<GridPoint> grid;
  grid.reserve(kinds.size() * request.iq_sizes.size() * mixes.size());
  for (const core::SchedulerKind kind : kinds) {
    for (const std::uint32_t iq : request.iq_sizes) {
      for (const trace::WorkloadMix& mix : mixes) {
        grid.push_back({kind, iq, &mix});
      }
    }
  }
  auto key_of = [&](std::size_t i) {  // the cell's journal key and label
    return std::string(core::scheduler_kind_name(grid[i].kind)) + " iq=" +
           std::to_string(grid[i].iq) + " " + std::string(grid[i].mix->name);
  };

  robust::ChaosPlan chaos = robust::ChaosPlan::parse(request.chaos, grid.size());

  // Crash isolation: while the grid executes, MSIM_CHECK failures throw
  // msim::CheckError instead of aborting the process.  The handler slot is
  // process-wide (and inherited by forked workers), so it is installed once
  // around the whole grid, never per worker.
  std::optional<ScopedCheckThrow> check_guard;
  if (request.isolate_failures) check_guard.emplace();

  const std::uint64_t fingerprint = sweep_fingerprint(request);
  const bool journaling = !request.journal_path.empty();

  // Structured progress: sweep/cell milestones with a completion counter.
  // Sinks see the true completion order (nondeterministic under jobs > 1);
  // the simulated results stay bit-identical regardless.
  obs::ProgressBus* bus = request.progress_bus;
  const std::string sweep_label = std::to_string(request.thread_count) + "T sweep";
  if (bus) {
    obs::ProgressEvent ev(obs::ProgressKind::kSweepStart);
    ev.label = sweep_label;
    ev.total = grid.size();
    bus->publish(ev);
  }

  // Every finished cell lands here: its result, plus (when journaling) the
  // payload the merged journal will hold for it.
  std::vector<MixResult> results(grid.size());
  std::vector<std::vector<std::uint8_t>> payloads(grid.size());
  std::atomic<std::uint64_t> done{0};
  std::mutex progress_mu;
  enum class From { kJournal, kThread, kWorker };
  auto finish = [&](std::size_t i, MixResult r, std::vector<std::uint8_t> payload,
                    From from) {
    const std::uint64_t completed = done.fetch_add(1) + 1;
    if (bus && from != From::kWorker) {  // the supervisor publishes its own
      obs::ProgressEvent ev(obs::ProgressKind::kCellFinish);
      ev.label = key_of(i);
      ev.done = completed;
      ev.total = grid.size();
      ev.ok = r.ok;
      if (from == From::kJournal) ev.detail = "journal replay";
      bus->publish(ev);
    }
    if (request.progress && from != From::kJournal) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      request.progress(key_of(i) + (r.ok ? "" : " FAILED"));
    }
    if (journaling && r.ok) payloads[i] = std::move(payload);
    results[i] = std::move(r);
  };
  auto failed = [&](std::size_t i, std::string error, unsigned attempts) {
    MixResult m;
    m.mix_name = grid[i].mix->name;
    m.ok = false;
    m.error = std::move(error);
    m.attempts = attempts;
    return m;
  };

  // ---- 1. Replay: with `resume`, the main journal united with any worker
  // shards a killed sweep left behind; without it, stale files are removed.
  std::vector<std::size_t> pending;
  {
    using persist::SweepJournal;
    std::map<std::string, std::vector<std::uint8_t>> completed;
    if (journaling && request.resume) {
      completed = SweepJournal::read_completed(request.journal_path, fingerprint);
      for (const std::string& shard : shards_of(request.journal_path)) {
        for (auto& [key, payload] : SweepJournal::read_completed(shard, fingerprint)) {
          completed.emplace(key, std::move(payload));
        }
      }
    } else if (journaling) {
      (void)std::filesystem::remove(request.journal_path);
      for (const std::string& shard : shards_of(request.journal_path)) {
        (void)std::filesystem::remove(shard);
      }
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto it = completed.find(key_of(i));
      if (it == completed.end()) {
        pending.push_back(i);
        continue;
      }
      MixResult m = decode_mix_result(it->second);
      if (m.mix_name != grid[i].mix->name) {
        throw persist::PersistError(
            "journal entry '" + it->first + "' replays mix '" + m.mix_name +
            "'; the journal does not match this sweep (docs/CHECKPOINT.md)");
      }
      finish(i, std::move(m), std::move(it->second), From::kJournal);
    }
    if (const std::size_t n = grid.size() - pending.size(); n != 0 && request.progress) {
      request.progress("journal: replaying " + std::to_string(n) + " completed cell(s)");
    }
  }

  // ---- 2. Execute the pending cells on a ThreadPool thread or a forked
  // worker under robust::SweepSupervisor.  Neither re-runs a cell that
  // failed in the simulator (deterministic: it would fail the same way);
  // `retries` bounds worker deaths only.
  if (process) {
    // A forked worker must never touch `baselines`: another thread may hold
    // one of its single-flight slots (or its mutex) at the fork, and that
    // owner does not exist in the child.  Workers get a private cache seeded
    // before the fork (baselines are deterministic: same bytes either way).
    const RunConfig worker_base = detached_for_fork(request.base);
    const RunConfig baseline_base = detached_for_fork(baselines.base());
    const std::vector<BaselineEntry> known = baselines.snapshot();
    std::optional<BaselineCache> worker_baselines;  // only ever set in a worker
    auto cell_fn = [&](std::size_t i) -> robust::CellOutcome {
      if (!worker_baselines) worker_baselines.emplace(baseline_base, known);
      const GridPoint& p = grid[i];
      robust::CellOutcome out;
      out.payload = encode_mix_result(
          run_mix(*p.mix, p.kind, p.iq, worker_base, *worker_baselines));
      return out;
    };

    robust::SupervisorConfig sc;
    sc.total_cells = grid.size();
    sc.workers = request.workers == 0 ? request.jobs : request.workers;
    sc.retries = request.retries;
    sc.cell_timeout_ms = request.cell_timeout_ms;
    sc.tuning.heartbeat_timeout_ms = request.worker_heartbeat_timeout_ms;
    sc.chaos = std::move(chaos);
    sc.journal_path = request.journal_path;
    sc.journal_fingerprint = fingerprint;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!results[i].mix_name.empty()) sc.completed.push_back(i);  // replayed
    }
    sc.watch_signals = request.base.watch_signals;
    sc.cancel = request.base.cancel;
    sc.progress_bus = bus;  // the supervisor publishes cell events itself
    sc.cell_label = key_of;
    robust::SweepSupervisor supervisor(std::move(sc));
    robust::SupervisorReport report = supervisor.run(cell_fn);

    for (auto& [i, outcome] : report.outcomes) {
      MixResult m = outcome.ok ? decode_mix_result(outcome.payload)
                               : failed(i, outcome.error, outcome.attempts);
      finish(i, std::move(m), std::move(outcome.payload), From::kWorker);
    }
    for (const robust::SupervisorFailure& f : report.process_failures) {
      MixResult m = failed(f.cell, f.error, f.attempts);
      m.diag = f.diag;
      finish(f.cell, std::move(m), {}, From::kWorker);
    }
  } else {
    // Cells are journaled as they finish: a killed sweep loses only those in flight.
    std::optional<persist::SweepJournal> journal;
    if (journaling) journal.emplace(request.journal_path, fingerprint, /*resume=*/true);
    std::mutex journal_mu;
    // Set once a cell throws: cells not yet started are skipped, so an
    // interrupt or an un-isolated failure stops the sweep promptly.
    std::atomic<bool> stop{false};

    auto run_cell = [&](std::size_t i) {
      if (stop.load()) return;
      const GridPoint& p = grid[i];
      const std::string key = key_of(i);
      if (bus) {
        obs::ProgressEvent ev(obs::ProgressKind::kCellStart);
        ev.label = key;
        bus->publish(ev);
      }
      MixResult r;
      try {
        std::optional<obs::ScopeTimer> cell_timer;
        if (request.timers) cell_timer.emplace(*request.timers, "cell:" + key);
        r = run_mix(*p.mix, p.kind, p.iq, request.base, baselines);
      } catch (const std::exception& e) {
        // An interrupt (or the serve daemon's per-job cancel) is a request
        // to stop, not a cell failure: never recorded, the cell reruns on
        // resume.  Without isolation, any failure stops the sweep.
        if (dynamic_cast<const persist::Interrupted*>(&e) != nullptr ||
            dynamic_cast<const persist::Cancelled*>(&e) != nullptr ||
            !request.isolate_failures) {
          stop = true;
          throw;
        }
        r = failed(i, e.what(), 1);
      }
      // Failed cells are not recorded: a resume retries them from scratch.
      std::vector<std::uint8_t> payload;
      if (journal && r.ok) {
        payload = encode_mix_result(r);
        const std::lock_guard<std::mutex> lock(journal_mu);
        journal->append(key, payload);
      }
      finish(i, std::move(r), std::move(payload), From::kThread);
    };

    ThreadPool pool(request.jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(pending.size());
    for (const std::size_t i : pending) {
      futures.push_back(pool.submit([&run_cell, i] { run_cell(i); }));
    }
    // Drain every task before rethrowing anything, so completed cells all
    // reach the journal.  An interrupt outranks a cancel outranks any other
    // failure: it is the reason the caller is exiting.
    std::exception_ptr first[3];
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (const persist::Interrupted&) {
        if (!first[0]) first[0] = std::current_exception();
      } catch (const persist::Cancelled&) {
        if (!first[1]) first[1] = std::current_exception();
      } catch (...) {
        if (!first[2]) first[2] = std::current_exception();
      }
    }
    for (const std::exception_ptr& e : first) {
      if (e) std::rethrow_exception(e);
    }
  }
  check_guard.reset();

  // ---- 3. Merge.  The main journal is rewritten with every successful
  // cell in fixed grid order -- replayed cells keep their exact journaled
  // bytes -- and the worker shards are retired.  A crash before this point
  // leaves the journal and shards in place; a resume unions them back in.
  if (journaling) {
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> merged;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (results[i].ok) merged.emplace_back(key_of(i), std::move(payloads[i]));
    }
    persist::SweepJournal::write_merged(request.journal_path, fingerprint, merged);
    for (const std::string& shard : shards_of(request.journal_path)) {
      (void)std::filesystem::remove(shard);
    }
  }

  if (bus) {
    obs::ProgressEvent ev(obs::ProgressKind::kSweepFinish);
    ev.label = sweep_label;
    ev.done = done.load();
    ev.total = grid.size();
    bus->publish(ev);
  }

  std::vector<SweepCell> cells;
  cells.reserve(kinds.size() * request.iq_sizes.size());
  std::size_t next = 0;
  for (const core::SchedulerKind kind : kinds) {
    for (const std::uint32_t iq : request.iq_sizes) {
      std::vector<MixResult> cell_results(
          std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(next)),
          std::make_move_iterator(results.begin() +
                                  static_cast<std::ptrdiff_t>(next + mixes.size())));
      next += mixes.size();
      cells.push_back(aggregate_cell(kind, iq, std::move(cell_results)));
    }
  }

  // Compute per-mix speedups against traditional at the same capacity.
  std::map<std::uint32_t, const SweepCell*> trad_by_iq;
  for (const SweepCell& cell : cells) {
    if (cell.kind == core::SchedulerKind::kTraditional) {
      trad_by_iq[cell.iq_entries] = &cell;
    }
  }
  for (SweepCell& cell : cells) {
    const SweepCell* trad = trad_by_iq.at(cell.iq_entries);
    std::vector<double> ipc_ratios;
    std::vector<double> fair_ratios;
    MSIM_CHECK(trad->mixes.size() == cell.mixes.size());
    for (std::size_t i = 0; i < cell.mixes.size(); ++i) {
      MSIM_CHECK(trad->mixes[i].mix_name == cell.mixes[i].mix_name);
      // A speedup is a paired comparison: it exists only when both sides of
      // the pair survived.  Failed mixes drop out of the mean.
      if (!trad->mixes[i].ok || !cell.mixes[i].ok) continue;
      ipc_ratios.push_back(cell.mixes[i].throughput_ipc /
                           trad->mixes[i].throughput_ipc);
      fair_ratios.push_back(cell.mixes[i].fairness / trad->mixes[i].fairness);
    }
    cell.ipc_speedup_vs_trad = harmonic_mean(ipc_ratios);
    cell.fairness_gain_vs_trad = harmonic_mean(fair_ratios);
  }

  if (!traditional_requested) {
    std::erase_if(cells, [](const SweepCell& c) {
      return c.kind == core::SchedulerKind::kTraditional;
    });
  }
  return cells;
}

const SweepCell& cell_for(const std::vector<SweepCell>& cells,
                          core::SchedulerKind kind, std::uint32_t iq_entries) {
  for (const SweepCell& cell : cells) {
    if (cell.kind == kind && cell.iq_entries == iq_entries) return cell;
  }
  throw std::invalid_argument("no sweep cell for requested (kind, iq)");
}

std::vector<FailedCell> sweep_failures(const std::vector<SweepCell>& cells) {
  std::vector<FailedCell> failures;
  for (const SweepCell& cell : cells) {
    for (const MixResult& m : cell.mixes) {
      if (m.ok) continue;
      failures.push_back(
          {cell.kind, cell.iq_entries, m.mix_name, m.error, m.attempts, m.diag});
    }
  }
  return failures;
}

}  // namespace msim::sim
