#include "persist/append_log.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "persist/atomic_file.hpp"

namespace msim::persist {

JsonValue AppendLog::parse_header(std::string_view line, std::string_view magic,
                                  const std::string& path, std::string_view what) {
  try {
    JsonValue header = JsonValue::parse(line);
    if (header.contains(magic)) return header;
  } catch (const std::invalid_argument&) {  // not JSON, or not an object
  }
  throw PersistError("'" + path + "' is not a " + std::string(what));
}

double AppendLog::integral(double v, int bits, bool is_signed) {
  const double hi = std::ldexp(1.0, bits);  // a power of two: exact
  if (!(v >= (is_signed ? -hi : 0.0) && v < hi && std::trunc(v) == v)) {
    throw std::invalid_argument("not an integer in range");  // NaN lands here too
  }
  return v;
}

std::size_t AppendLog::scan(std::string_view content, const std::string& path,
                            const Header& header, const Record& record) {
  std::size_t valid = 0;
  bool have_header = false;
  for (std::size_t eol; (eol = content.find('\n', valid)) != std::string_view::npos;) {
    const std::string_view line = content.substr(valid, eol - valid);
    if (!line.empty() && !have_header) {
      header(line);
      have_header = true;
    } else if (!line.empty()) {
      try {
        if (!record(line)) break;
      } catch (const PersistError&) {
        break;  // a bad record ends the prefix, exactly like a torn one
      } catch (const std::invalid_argument&) {
        break;
      }
    }
    valid = eol + 1;
  }
  if (!have_header) {
    throw PersistError("'" + path + "' is empty or has no complete header line");
  }
  return valid;
}

AppendLog::AppendLog(std::string path, std::uint64_t sync_every)
    : path_(std::move(path)),
      fd_(::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC)),
      sync_every_(sync_every) {
  if (fd_ < 0) throw_errno("cannot open for appending", path_);
}

AppendLog AppendLog::create(std::string path, std::string_view content,
                            std::uint64_t sync_every) {
  write_text_atomic(path, content);
  return AppendLog(std::move(path), sync_every);
}

AppendLog AppendLog::reopen(std::string path, std::size_t valid_bytes,
                            std::uint64_t sync_every) {
  if (::truncate(path.c_str(), static_cast<::off_t>(valid_bytes)) != 0) {
    throw_errno("cannot truncate torn tail of", path);
  }
  return AppendLog(std::move(path), sync_every);
}

AppendLog AppendLog::open(std::string path, std::string_view fresh_header,
                          const Header& header, const Record& record,
                          std::uint64_t sync_every) {
  const std::optional<std::string> existing = read_file_if_present(path);
  if (!existing) return create(std::move(path), fresh_header, sync_every);
  const std::size_t valid = scan(*existing, path, header, record);
  return reopen(std::move(path), valid, sync_every);
}

AppendLog::AppendLog(AppendLog&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      sync_every_(other.sync_every_),
      unsynced_(other.unsynced_) {}

AppendLog::~AppendLog() {
  if (fd_ >= 0) (void)::close(fd_);
}

void AppendLog::append(std::string_view line) {
  if (fd_ < 0) throw std::logic_error("log '" + path_ + "' is closed");
  write_all(fd_, line, path_);
  if (++unsynced_ >= sync_every_) sync();
}

void AppendLog::sync() {
  if (::fsync(fd_) != 0) throw_errno("fsync failed for", path_);
  unsynced_ = 0;
}

void AppendLog::close() {
  if (fd_ < 0) throw std::logic_error("log '" + path_ + "' is closed");
  sync();
  (void)::close(fd_);
  fd_ = -1;
}

}  // namespace msim::persist
