// Streaming JSONL export of interval telemetry (schema msim.intervals.v1).
//
// The writer appends to `<path>.part` -- header line first, then one
// compact JSON line per obs::IntervalRecord (persist::AppendLog), fsynced
// every kFsyncBatch lines -- and a clean finalize() fsyncs and atomically
// renames to `path`.  An interrupted run leaves the .part behind; the
// resuming run's constructor validates its header and truncates it to the
// checkpoint's stream cursor (obs::IntervalEngine::captured_total), dropping
// any records the killed run captured after its last checkpoint, so the
// resumed stream's final bytes match an uninterrupted run's exactly.
#pragma once

#include <cstdint>
#include <string>

#include "obs/interval.hpp"
#include "persist/append_log.hpp"

namespace msim::persist {

class IntervalStreamWriter {
 public:
  /// `already_streamed` = 0 starts a fresh stream; > 0 resumes the .part
  /// left by an interrupted run (PersistError when it is missing, has a
  /// different header, or holds fewer complete records than the cursor).
  /// No implicit finalize on destruction: an abandoned writer (interrupt,
  /// abort) leaves the .part behind for a resume to continue from.
  IntervalStreamWriter(std::string path, const obs::IntervalConfig& config,
                       unsigned thread_count, std::uint64_t already_streamed);

  IntervalStreamWriter(const IntervalStreamWriter&) = delete;
  IntervalStreamWriter& operator=(const IntervalStreamWriter&) = delete;

  void append(const obs::IntervalRecord& record);

  /// Flush + fsync + rename .part over `path`.  Call on clean completion
  /// only; after finalize() the writer is closed.
  void finalize();

  /// Records appended by this writer (excludes resumed-over lines).
  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

  /// Appends are fsynced every this many lines (and on finalize).
  static constexpr std::uint64_t kFsyncBatch = 64;

 private:
  std::string path_;
  AppendLog log_;  // appends to path_ + ".part"
  std::uint64_t written_ = 0;
};

}  // namespace msim::persist
