// Crash-safe file replacement: write-temp + fsync + atomic rename.
//
// Every artefact the simulator leaves on disk (stats JSON, sweep JSON,
// diagnostic bundles, checkpoints) goes through here, so a crash or signal
// mid-write can never leave a truncated, unparseable file under the final
// name: readers either see the complete old content or the complete new
// content.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace msim::persist {

/// Atomically replaces `path` with `bytes`: writes `path` + ".tmp.<pid>",
/// fsyncs it, renames it over `path`, then fsyncs the directory so the
/// rename itself survives a power cut.  Throws std::runtime_error with the
/// errno text on any failure (the temp file is unlinked best-effort).
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes);

/// Renames `from` over `to`, then fsyncs `to`'s directory so the rename
/// survives a power cut.  Throws std::runtime_error when the rename fails.
void rename_durably(const std::string& from, const std::string& to);

/// write_file_atomic for text content.
void write_text_atomic(const std::string& path, std::string_view text);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
/// std::runtime_error (naming `path`) on failure.
void write_all(int fd, std::string_view bytes, const std::string& path);

/// Throws std::runtime_error("<what> '<path>': <strerror(errno)>").
[[noreturn]] void throw_errno(const std::string& what, const std::string& path);

/// Reads the whole file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);
/// read_file, but nullopt when the file cannot be opened (e.g. is missing).
[[nodiscard]] std::optional<std::string> read_file_if_present(const std::string& path);

}  // namespace msim::persist
