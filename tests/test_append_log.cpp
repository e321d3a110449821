// persist::AppendLog and the three logs built on it: the sweep journal,
// the interval stream and the serve job ledger.
//
//   1. AppendLog::field: every field access is checked -- a missing field,
//      a wrong type or a number that does not fit the target integer is a
//      PersistError, never std::invalid_argument and never an unchecked
//      float->int cast.
//   2. Decoder probes: malformed journal and ledger headers are
//      PersistErrors; a malformed record ends the valid prefix.
//   3. Every-byte-offset truncation: each log, written by its own writer,
//      is cut at every byte offset and reopened.  The reopen recovers
//      exactly the complete records before the cut, leaves a file whose
//      next append reads back cleanly, and throws nothing but PersistError
//      (only when the cut tore the header).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "obs/interval.hpp"
#include "persist/append_log.hpp"
#include "persist/atomic_file.hpp"
#include "persist/interval_stream.hpp"
#include "persist/journal.hpp"
#include "serve/ledger.hpp"

namespace msim {
namespace {

using persist::PersistError;

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "-" + std::to_string(::getpid())))
      .string();
}

/// Removes a temp file or directory even when an assertion bails out.
class TempPath {
 public:
  explicit TempPath(const std::string& stem) : path_(temp_path(stem)) {
    std::filesystem::remove_all(path_);
  }
  ~TempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(path_ + ".part", ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void put(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::size_t complete_lines(std::string_view bytes) {
  return static_cast<std::size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
}

// ---- 1. AppendLog::field ---------------------------------------------------

using persist::AppendLog;

TEST(AppendLogField, IntegersAreCheckedAgainstTheTargetType) {
  const JsonValue line = JsonValue::parse(
      R"({"neg": -1, "frac": 1.5, "big": 1e300, "u32max": 4294967295,)"
      R"( "u32over": 4294967296, "two64": 18446744073709551616,)"
      R"( "int_min": -2147483648, "int_over": 2147483648, "s": "7"})");
  EXPECT_THROW((void)AppendLog::field<std::uint32_t>(line, "neg"), PersistError);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "neg"), PersistError);
  EXPECT_EQ(AppendLog::field<int>(line, "neg"), -1);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "frac"), PersistError);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "big"), PersistError);
  EXPECT_THROW((void)AppendLog::field<std::int64_t>(line, "big"), PersistError);
  EXPECT_EQ(AppendLog::field<std::uint32_t>(line, "u32max"), 4294967295u);
  EXPECT_THROW((void)AppendLog::field<std::uint32_t>(line, "u32over"), PersistError);
  EXPECT_EQ(AppendLog::field<std::uint64_t>(line, "u32over"), 4294967296u);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "two64"), PersistError);
  EXPECT_EQ(AppendLog::field<int>(line, "int_min"), -2147483647 - 1);
  EXPECT_THROW((void)AppendLog::field<int>(line, "int_over"), PersistError);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "s"), PersistError);
  EXPECT_THROW((void)AppendLog::field<std::uint64_t>(line, "absent"), PersistError);
}

TEST(AppendLogField, TypeAndShapeErrorsArePersistErrors) {
  using Strings = std::map<std::string, std::string>;
  const JsonValue line = JsonValue::parse(
      R"({"n": 1, "s": "x", "b": true, "o": {"k": 1}, "m": {"k": "v"}})");
  EXPECT_THROW((void)AppendLog::field<std::string>(line, "n"), PersistError);
  EXPECT_THROW((void)AppendLog::field<bool>(line, "s"), PersistError);
  EXPECT_TRUE(AppendLog::field<bool>(line, "b"));
  // A member that is not a string:
  EXPECT_THROW((void)AppendLog::field<Strings>(line, "o"), PersistError);
  EXPECT_THROW((void)AppendLog::field<Strings>(line, "s"), PersistError);
  EXPECT_EQ(AppendLog::field<Strings>(line, "m"), (Strings{{"k", "v"}}));
  EXPECT_THROW((void)AppendLog::field<std::string>(JsonValue::parse("[1]"), "s"),
               PersistError);
  EXPECT_THROW((void)AppendLog::parse_header("not json", "magic", "p", "log"),
               PersistError);
  EXPECT_THROW((void)AppendLog::parse_header(R"({"other": 1})", "magic", "p", "log"),
               PersistError);
}

TEST(AppendLogScan, StopsAtTheFirstRejectedOrTornLine) {
  const std::string content = "H\nr1\n\nr2\nbad\nr3\nr4-torn";
  std::vector<std::string> seen;
  const std::size_t valid = AppendLog::scan(
      content, "mem", [](std::string_view) {},
      [&](std::string_view line) {
        if (line == "bad") throw PersistError("bad record");
        seen.emplace_back(line);
        return true;
      });
  EXPECT_EQ(seen, (std::vector<std::string>{"r1", "r2"}));
  EXPECT_EQ(content.substr(0, valid), "H\nr1\n\nr2\n");
  EXPECT_THROW((void)AppendLog::scan(
                   "", "mem", [](std::string_view) {},
                   [](std::string_view) { return true; }),
               PersistError);
}

// ---- 2. Decoder probes -----------------------------------------------------

constexpr std::uint64_t kFp = 0xfeed;
const std::string kFpHex = "\"0x000000000000feed\"";

TEST(SweepJournalDecoder, MalformedHeadersArePersistErrors) {
  const TempPath journal("msim-journal-probe");
  const std::vector<std::string> headers = {
      R"({"msim_sweep_journal": 4, "fingerprint": 7})",  // number, not hex
      R"({"msim_sweep_journal": 4})",                    // no fingerprint
      R"({"msim_sweep_journal": -1, "fingerprint": )" + kFpHex + "}",
      R"({"msim_sweep_journal": 1e300, "fingerprint": )" + kFpHex + "}",
      R"({"msim_sweep_journal": "4", "fingerprint": )" + kFpHex + "}",
  };
  for (const std::string& header : headers) {
    SCOPED_TRACE(header);
    put(journal.path(), header + "\n");
    EXPECT_THROW((void)persist::SweepJournal::read_completed(journal.path(), kFp),
                 PersistError);
    EXPECT_THROW(persist::SweepJournal(journal.path(), kFp, /*resume=*/true),
                 PersistError);
  }
}

TEST(SweepJournalDecoder, AMistypedEntryEndsTheValidPrefix) {
  const TempPath journal("msim-journal-entry-probe");
  {
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/false);
    j.append("good", {1, 2});
  }
  {
    std::ofstream out(journal.path(), std::ios::app);
    out << "{\"cell\": 7, \"payload\": \"00\"}\n";
    out << "{\"cell\": \"after\", \"payload\": \"01\"}\n";
  }
  const auto entries = persist::SweepJournal::read_completed(journal.path(), kFp);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries.at("good"), (std::vector<std::uint8_t>{1, 2}));
  {
    // The resuming writer cuts the bad entry (and everything after it)
    // off, so its next append reads back.
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/true);
    EXPECT_EQ(j.loaded_entries(), 1u);
    j.append("next", {3});
  }
  const auto reread = persist::SweepJournal::read_completed(journal.path(), kFp);
  EXPECT_EQ(reread.size(), 2u);
  EXPECT_EQ(reread.count("after"), 0u);
}

TEST(JobLedgerDecoder, MalformedHeadersArePersistErrors) {
  const TempPath dir("msim-ledger-probe");
  std::filesystem::create_directories(dir.path());
  for (const std::string header : {
           R"({"msim_job_ledger": 1})",  // no next_id
           R"({"msim_job_ledger": 1, "next_id": -3})",
           R"({"msim_job_ledger": 1, "next_id": 1.5})",
           R"({"msim_job_ledger": -1, "next_id": 1})",
       }) {
    SCOPED_TRACE(header);
    persist::write_text_atomic(dir.path() + "/ledger.jsonl", header + "\n");
    EXPECT_THROW(serve::JobLedger{dir.path()}, PersistError);
  }
}

// ---- 3. Every-byte-offset truncation ---------------------------------------

TEST(AppendLogTruncation, SweepJournalRecoversThePrefixAtEveryCut) {
  const TempPath journal("msim-journal-cut");
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> records = {
      {"a", {1}}, {"b", {2, 3}}, {"c", {}}, {"d", {4, 5, 6}}};
  {
    persist::SweepJournal j(journal.path(), kFp, /*resume=*/false);
    for (const auto& [key, payload] : records) j.append(key, payload);
  }
  const std::string full = slurp(journal.path());
  ASSERT_EQ(complete_lines(full), 1 + records.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    put(journal.path(), std::string_view(full).substr(0, cut));
    const std::size_t lines = complete_lines(std::string_view(full).substr(0, cut));
    if (lines == 0) {  // the header itself is torn
      EXPECT_THROW(persist::SweepJournal(journal.path(), kFp, true), PersistError);
      continue;
    }
    const std::size_t kept = lines - 1;
    {
      persist::SweepJournal j(journal.path(), kFp, /*resume=*/true);
      ASSERT_EQ(j.loaded_entries(), kept);
      for (std::size_t i = 0; i < kept; ++i) {
        ASSERT_NE(j.find(records[i].first), nullptr);
        EXPECT_EQ(*j.find(records[i].first), records[i].second);
      }
      j.append("next", {9});
    }
    const auto back = persist::SweepJournal::read_completed(journal.path(), kFp);
    EXPECT_EQ(back.size(), kept + 1);
    ASSERT_EQ(back.count("next"), 1u);
    EXPECT_EQ(back.at("next"), std::vector<std::uint8_t>{9});
  }
}

obs::IntervalRecord interval_record(std::uint64_t i) {
  obs::IntervalRecord r;
  r.index = i;
  r.start_cycle = 100 * i;
  r.end_cycle = 100 * (i + 1);
  r.committed = 37 * (i + 1);
  r.ipc = 0.37 * static_cast<double>(i + 1);
  r.threads.resize(1);
  r.threads[0].committed = r.committed;
  return r;
}

TEST(AppendLogTruncation, IntervalStreamResumesThePrefixAtEveryCut) {
  const TempPath stream("msim-ivstream-cut");
  const std::string part = stream.path() + ".part";
  const obs::IntervalConfig config{100, 16};
  constexpr std::uint64_t kRecords = 3;
  {
    persist::IntervalStreamWriter writer(stream.path(), config, 1, 0);
    for (std::uint64_t i = 0; i < kRecords; ++i) writer.append(interval_record(i));
  }  // abandoned: the .part stays behind
  const std::string full = slurp(part);
  ASSERT_EQ(complete_lines(full), 1 + kRecords);

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::filesystem::remove(stream.path());
    put(part, std::string_view(full).substr(0, cut));
    const std::size_t lines = complete_lines(std::string_view(full).substr(0, cut));
    if (lines == 0) {  // the header itself is torn
      EXPECT_THROW(persist::IntervalStreamWriter(stream.path(), config, 1, 1),
                   PersistError);
      continue;
    }
    const std::uint64_t kept = lines - 1;
    // A cursor past the complete records is refused, file untouched.
    EXPECT_THROW(persist::IntervalStreamWriter(stream.path(), config, 1, kept + 1),
                 PersistError);
    std::string want = obs::format_interval_header(config, 1) + "\n";
    for (std::uint64_t i = 0; i <= kept; ++i) {
      want += obs::format_interval_record(interval_record(i)) + "\n";
    }
    {
      persist::IntervalStreamWriter writer(stream.path(), config, 1, kept);
      writer.append(interval_record(kept));
      writer.finalize();
    }
    EXPECT_EQ(slurp(stream.path()), want);
  }
}

/// What a replay of the first n ledger events must recover, modelled
/// directly from the events rather than decoded from the file.
struct LedgerEvent {
  std::uint64_t id;
  const char* kind;
};

void apply(std::map<std::uint64_t, serve::LedgerJob>& jobs, const LedgerEvent& e,
           const std::string& dir) {
  serve::LedgerJob& job = jobs[e.id];
  job.id = e.id;
  const std::string kind = e.kind;
  if (kind == "accepted") {
    job.priority = static_cast<int>(e.id) - 2;
    job.sweep = e.id == 2;
  } else if (kind == "running") {
    job.started = true;
  } else if (kind == "done") {
    job.terminal = true;
    job.state = serve::JobState::kDone;
    job.result_path = serve::JobLedger::result_path(dir, e.id);
  } else {
    job.terminal = true;
    job.state = kind == "failed" ? serve::JobState::kFailed : serve::JobState::kCancelled;
    job.error = "why " + std::to_string(e.id);
  }
}

void record(serve::JobLedger& ledger, const LedgerEvent& e, const std::string& dir) {
  const std::string kind = e.kind;
  if (kind == "accepted") {
    serve::Job job;
    job.id = e.id;
    job.priority = static_cast<int>(e.id) - 2;
    job.is_sweep = e.id == 2;
    job.kv.set("horizon", std::to_string(1000 * e.id));
    ledger.record_accepted(job);
  } else if (kind == "running") {
    ledger.record_running(e.id);
  } else if (kind == "done") {
    ledger.record_done(e.id, serve::JobLedger::result_path(dir, e.id));
  } else if (kind == "failed") {
    ledger.record_failed(e.id, "why " + std::to_string(e.id));
  } else {
    ledger.record_cancelled(e.id, "why " + std::to_string(e.id));
  }
}

TEST(AppendLogTruncation, JobLedgerRecoversThePrefixAtEveryCut) {
  const TempPath dir("msim-ledger-cut");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/ledger.jsonl";
  const std::vector<LedgerEvent> events = {
      {1, "accepted"}, {1, "running"},   {2, "accepted"}, {1, "done"},
      {2, "failed"},   {3, "accepted"}, {3, "cancelled"}, {4, "accepted"}};
  {
    serve::JobLedger ledger(dir.path());
    for (const LedgerEvent& e : events) record(ledger, e, dir.path());
  }
  const std::string full = slurp(path);
  ASSERT_EQ(complete_lines(full), 1 + events.size());

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    put(path, std::string_view(full).substr(0, cut));
    const std::size_t lines = complete_lines(std::string_view(full).substr(0, cut));
    if (lines == 0) {  // the header itself is torn
      EXPECT_THROW(serve::JobLedger{dir.path()}, PersistError);
      continue;
    }
    std::map<std::uint64_t, serve::LedgerJob> want;
    for (std::size_t i = 0; i + 1 < lines; ++i) apply(want, events[i], dir.path());
    {
      serve::JobLedger ledger(dir.path());
      ASSERT_EQ(ledger.recovered().size(), want.size());
      for (const serve::LedgerJob& got : ledger.recovered()) {
        const serve::LedgerJob& w = want.at(got.id);
        EXPECT_EQ(got.priority, w.priority) << got.id;
        EXPECT_EQ(got.sweep, w.sweep) << got.id;
        EXPECT_EQ(got.kv.get_string("horizon", ""), std::to_string(1000 * got.id));
        EXPECT_EQ(got.started, w.started) << got.id;
        EXPECT_EQ(got.terminal, w.terminal) << got.id;
        EXPECT_EQ(got.state, w.state) << got.id;
        EXPECT_EQ(got.result_path, w.result_path) << got.id;
        EXPECT_EQ(got.error, w.error) << got.id;
      }
      record(ledger, {9, "accepted"}, dir.path());
    }
    serve::JobLedger reopened(dir.path());
    ASSERT_EQ(reopened.recovered().size(), want.size() + 1);
    EXPECT_EQ(reopened.recovered().back().id, 9u);
    EXPECT_EQ(reopened.next_id(), 10u);
  }
}

}  // namespace
}  // namespace msim
