#include "persist/journal.hpp"

#include <stdexcept>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"
#include "persist/atomic_file.hpp"

namespace msim::persist {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += kHexDigits[b >> 4];
    out += kHexDigits[b & 0xf];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw PersistError("journal: odd-length hex payload");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw PersistError("journal: invalid hex digit in payload");
  };
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

std::string header_line(std::uint64_t fingerprint) {
  return "{\"msim_sweep_journal\": " + std::to_string(kJournalFormatVersion) +
         ", \"fingerprint\": \"" + hex_u64(fingerprint) + "\"}\n";
}

std::string entry_line(const std::string& key,
                       const std::vector<std::uint8_t>& payload) {
  return "{\"cell\": " + json_escape(key) + ", \"payload\": \"" +
         to_hex(payload) + "\"}\n";
}

/// Header check shared by every reader: magic key, format version and the
/// sweep fingerprint, each a PersistError when wrong.
AppendLog::Header header_check(const std::string& path, std::uint64_t fingerprint) {
  return [&path, fingerprint](std::string_view text) {
    const JsonValue header = AppendLog::parse_header(
        text, "msim_sweep_journal", path, "msim sweep journal");
    const auto version =
        AppendLog::field<std::uint32_t>(header, "msim_sweep_journal");
    const auto fp = AppendLog::field<std::string>(header, "fingerprint");
    if (version != kJournalFormatVersion) {
      throw PersistError("'" + path + "' has journal format version " +
                         std::to_string(version) +
                         "; this binary writes version " +
                         std::to_string(kJournalFormatVersion));
    }
    if (fp != hex_u64(fingerprint)) {
      throw PersistError(
          "'" + path + "' belongs to sweep fingerprint " + fp +
          " but this sweep has " + hex_u64(fingerprint) +
          "; a journal only resumes the exact sweep request it was "
          "written for (docs/CHECKPOINT.md)");
    }
  };
}

/// Record decoder: loads each {"cell", "payload"} entry into `entries`.
AppendLog::Record entry_loader(
    std::map<std::string, std::vector<std::uint8_t>>& entries) {
  return [&entries](std::string_view text) {
    const JsonValue entry = JsonValue::parse(text);
    entries[AppendLog::field<std::string>(entry, "cell")] =
        from_hex(AppendLog::field<std::string>(entry, "payload"));
    return true;
  };
}

}  // namespace

SweepJournal::SweepJournal(std::string path, std::uint64_t fingerprint,
                           bool resume)
    : log_(resume ? AppendLog::open(path, header_line(fingerprint),
                                    header_check(path, fingerprint),
                                    entry_loader(entries_), kSyncEvery)
                  : AppendLog::create(path, header_line(fingerprint),
                                      kSyncEvery)) {}

const std::vector<std::uint8_t>* SweepJournal::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SweepJournal::append(const std::string& key,
                          const std::vector<std::uint8_t>& payload) {
  log_.append(entry_line(key, payload));
}

std::map<std::string, std::vector<std::uint8_t>> SweepJournal::read_completed(
    const std::string& path, std::uint64_t fingerprint) {
  const std::optional<std::string> content = read_file_if_present(path);
  if (!content) return {};  // no journal: nothing completed
  std::map<std::string, std::vector<std::uint8_t>> entries;
  (void)AppendLog::scan(*content, path, header_check(path, fingerprint),
                        entry_loader(entries));
  return entries;
}

void SweepJournal::write_merged(
    const std::string& path, std::uint64_t fingerprint,
    const std::vector<std::pair<std::string, std::vector<std::uint8_t>>>&
        entries) {
  std::string content = header_line(fingerprint);
  for (const auto& [key, payload] : entries) {
    content += entry_line(key, payload);
  }
  write_text_atomic(path, content);
}

}  // namespace msim::persist
