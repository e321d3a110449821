// Write-ahead journal for crash-recoverable sweeps.
//
// Append-only JSONL: the first line is a header carrying the journal format
// version and the sweep-request fingerprint; each subsequent line records
// one completed sweep cell run as {"cell": key, "payload": hex}.  Appends
// are one whole line plus fsync (persist::AppendLog), so a crash can lose at
// most the line being written; the loader keeps the valid prefix up to the
// first torn or malformed line and truncates the file back to it (else the
// next append would glue onto the torn bytes and both records would be lost).
// The payload is an opaque hex-encoded persist::Archive blob -- the journal
// does not know what a MixResult is.
//
// Process-isolated sweeps (robust::SweepSupervisor) give every worker its
// own journal shard at `<path>.shard<slot>` in this same format.  When a
// sweep completes, sim::run_sweep rewrites `<path>` with every completed
// cell in fixed grid order (write_merged) and removes the shards, for both
// backends; a resume -- even after `kill -9` of the sweep process itself --
// replays the union of `<path>` and any surviving shards byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "persist/append_log.hpp"

namespace msim::persist {

/// v2: the RunResult payload gained interval records + drop count.
/// v3: interval records carry a region_id (sampled mode, docs/SAMPLING.md).
/// v4: MixResult payloads gained the failure-diagnostic field.
inline constexpr std::uint32_t kJournalFormatVersion = 4;

class SweepJournal {
 public:
  /// Opens `path` for appending.  With `resume`, an existing file is
  /// validated (format version + fingerprint, PersistError on mismatch)
  /// and its completed entries are loaded; without it, any existing file
  /// is replaced by a fresh header (atomic).  A missing file starts fresh
  /// either way, so `resume` against a journal that never got written
  /// simply runs the whole sweep.
  SweepJournal(std::string path, std::uint64_t fingerprint, bool resume);

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The payload recorded for `key`, or nullptr.  Loaded entries only;
  /// lookups do not see keys appended by this process (callers do not
  /// re-run what they just ran).
  [[nodiscard]] const std::vector<std::uint8_t>* find(const std::string& key) const;

  [[nodiscard]] std::size_t loaded_entries() const noexcept { return entries_.size(); }

  /// Durably appends one completed-cell record.  NOT thread-safe: callers
  /// running cells in parallel serialize appends under their own mutex.
  void append(const std::string& key, const std::vector<std::uint8_t>& payload);

  /// Read-only load of a journal's completed entries: validates the header
  /// (PersistError on a malformed header or a version/fingerprint
  /// mismatch), keeps the valid prefix without modifying the file, and
  /// returns empty for a missing file.  Used by run_sweep to union the main
  /// journal with worker shards without holding any of them open.
  [[nodiscard]] static std::map<std::string, std::vector<std::uint8_t>>
  read_completed(const std::string& path, std::uint64_t fingerprint);

  /// Atomically replaces `path` with a fresh journal holding `entries` in
  /// the given order (run_sweep's fixed-grid-order merge).  Readers
  /// see either the old journal or the complete merged one, never a mix.
  static void write_merged(
      const std::string& path, std::uint64_t fingerprint,
      const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>& entries);

 private:
  /// Journal appends are fsynced one line at a time.
  static constexpr std::uint64_t kSyncEvery = 1;

  std::map<std::string, std::vector<std::uint8_t>> entries_;  // before log_:
  AppendLog log_;  // the constructor's replay fills entries_
};

}  // namespace msim::persist
