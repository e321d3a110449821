#include "persist/interval_stream.hpp"

#include <stdexcept>

#include "common/archive.hpp"  // PersistError
#include "persist/atomic_file.hpp"

namespace msim::persist {

namespace {

/// Opens `part` for appending: fresh, or resumed at the interrupted run's
/// header plus its first `already_streamed` complete record lines.
AppendLog open_part(const std::string& part, const std::string& header,
                    std::uint64_t already_streamed, std::uint64_t sync_every) {
  if (already_streamed == 0) return AppendLog::create(part, header + "\n", sync_every);
  // Anything past the cursor was captured after the checkpoint being resumed
  // and will be re-captured byte-identically; a torn final line is dropped
  // the same way.
  const std::optional<std::string> existing = read_file_if_present(part);
  if (!existing) {
    throw PersistError(
        "interval stream: resume expects the interrupted run's '" + part +
        "' (" + std::to_string(already_streamed) +
        " record(s) already streamed) but it is missing or unreadable; "
        "rerun without --resume to regenerate the stream from scratch");
  }
  std::uint64_t records = 0;
  const std::size_t valid = AppendLog::scan(
      *existing, part,
      [&](std::string_view line) {
        if (line != header) {
          throw PersistError(
              "interval stream: '" + part +
              "' has a different header than this run would write "
              "(interval= or thread count changed?); it cannot be resumed");
        }
      },
      [&](std::string_view) { return records < already_streamed && (++records, true); });
  if (records < already_streamed) {
    throw PersistError(
        "interval stream: '" + part + "' holds " + std::to_string(records) +
        " complete record(s) but the checkpoint says " +
        std::to_string(already_streamed) +
        " were streamed; the stream and checkpoint do not belong together");
  }
  return AppendLog::reopen(part, valid, sync_every);
}

}  // namespace

IntervalStreamWriter::IntervalStreamWriter(std::string path,
                                           const obs::IntervalConfig& config,
                                           unsigned thread_count,
                                           std::uint64_t already_streamed)
    : path_(std::move(path)),
      log_(open_part(path_ + ".part",
                     obs::format_interval_header(config, thread_count),
                     already_streamed, kFsyncBatch)) {}

void IntervalStreamWriter::append(const obs::IntervalRecord& record) {
  log_.append(obs::format_interval_record(record) + "\n");
  ++written_;
}

void IntervalStreamWriter::finalize() {
  log_.close();
  rename_durably(log_.path(), path_);
}

}  // namespace msim::persist
