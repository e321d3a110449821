#include "persist/atomic_file.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace msim::persist {

namespace {

/// fsync the directory containing `path` so a completed rename is durable.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // best-effort: some filesystems refuse O_RDONLY dirs
  (void)::fsync(fd);
  (void)::close(fd);
}

}  // namespace

void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

void write_all(int fd, std::string_view bytes, const std::string& path) {
  for (std::size_t written = 0; written < bytes.size();) {
    const ::ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno != EINTR) throw_errno("write failed for", path);
    if (n > 0) written += static_cast<std::size_t>(n);
  }
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  try {
    write_all(fd, {reinterpret_cast<const char*>(bytes.data()), bytes.size()}, tmp);
    if (::fsync(fd) != 0) throw_errno("fsync failed for", tmp);
    const int closed = ::close(std::exchange(fd, -1));
    if (closed != 0) throw_errno("close failed for", tmp);
    rename_durably(tmp, path);
  } catch (const std::runtime_error&) {
    if (fd >= 0) (void)::close(fd);
    (void)::unlink(tmp.c_str());
    throw;
  }
}

void rename_durably(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) throw_errno("rename failed onto", to);
  sync_parent_dir(to);
}

void write_text_atomic(const std::string& path, std::string_view text) {
  write_file_atomic(path,
                    {reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size()});
}

std::optional<std::string> read_file_if_present(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw std::runtime_error("read failed for '" + path + "'");
  return std::move(buf).str();
}

std::string read_file(const std::string& path) {
  std::optional<std::string> content = read_file_if_present(path);
  if (!content) throw std::runtime_error("cannot open '" + path + "' for reading");
  return std::move(*content);
}

}  // namespace msim::persist
