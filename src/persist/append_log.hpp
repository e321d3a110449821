// The append-only JSONL file under the sweep journal, the interval stream
// and the serve job ledger: a header line, then one record per line.  A file
// is created whole (atomic header write) and grows by whole lines appended
// with O_APPEND, so a crash can at worst tear the final line.  Readers keep
// the valid prefix -- scan() stops at the first torn or rejected line -- and
// reopen() cuts the file back to it, so the next append starts a fresh line
// instead of gluing onto torn bytes.  Each log keeps only its codec and its
// fsync policy (`sync_every`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"

namespace msim::persist {

class AppendLog {
 public:
  /// `Header` gets the first non-blank line and rejects the file by throwing
  /// PersistError; `Record` gets each later one and ends the valid prefix
  /// before it by returning false or throwing (PersistError or
  /// std::invalid_argument).
  using Header = std::function<void(std::string_view line)>;
  using Record = std::function<bool(std::string_view line)>;

  /// Byte length of `content`'s valid prefix; PersistError when it holds no
  /// complete header line.
  static std::size_t scan(std::string_view content, const std::string& path,
                          const Header& header, const Record& record);

  /// A header line parsed: PersistError ("'<path>' is not a <what>")
  /// unless it is a JSON object carrying the `magic` key.
  static JsonValue parse_header(std::string_view line, std::string_view magic,
                                const std::string& path, std::string_view what);

  /// The one checked accessor for header and record fields.  T is
  /// std::string, bool, an integer type or std::map<std::string,
  /// std::string>; a missing or mistyped field, or a number T does not
  /// represent exactly (fractions, NaN, out of range), is a PersistError --
  /// never an unchecked float->int cast.
  template <class T>
  static T field(const JsonValue& line, std::string_view key);

  /// Atomically replaces `path` with `content`, then opens it for appending.
  static AppendLog create(std::string path, std::string_view content,
                          std::uint64_t sync_every);
  /// Cuts `path` to its first `valid_bytes` bytes, then opens it for appending.
  static AppendLog reopen(std::string path, std::size_t valid_bytes,
                          std::uint64_t sync_every);
  /// Open-or-create: an existing `path` is scanned and reopened at its valid
  /// prefix; a missing one is created holding `fresh_header`.
  static AppendLog open(std::string path, std::string_view fresh_header,
                        const Header& header, const Record& record,
                        std::uint64_t sync_every);

  AppendLog(AppendLog&& other) noexcept;
  AppendLog& operator=(AppendLog&&) = delete;
  ~AppendLog();  // closes without a final fsync

  /// Writes `line` (newline included) whole; fsyncs once `sync_every`
  /// lines are pending.  NOT thread-safe.
  void append(std::string_view line);
  /// fsyncs, then closes; later calls throw std::logic_error.
  void close();

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  AppendLog(std::string path, std::uint64_t sync_every);
  void sync();
  /// `v` if it is integral and in [-2^bits or 0, 2^bits) -- T's exact range.
  static double integral(double v, int bits, bool is_signed);

  std::string path_;
  int fd_ = -1;
  std::uint64_t sync_every_ = 1;
  std::uint64_t unsynced_ = 0;
};

template <class T>
T AppendLog::field(const JsonValue& line, std::string_view key) {
  try {
    const JsonValue& v = line.at(key);
    if constexpr (std::is_same_v<T, std::string>) {
      return v.as_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      return v.as_bool();
    } else if constexpr (std::is_integral_v<T>) {
      using L = std::numeric_limits<T>;
      return static_cast<T>(integral(v.as_number(), L::digits, L::is_signed));
    } else {
      T out;
      for (const auto& [name, m] : v.as_object()) out.emplace(name, m.as_string());
      return out;
    }
  } catch (const std::invalid_argument& e) {
    throw PersistError("log field '" + std::string(key) + "': " + e.what());
  }
}

}  // namespace msim::persist
