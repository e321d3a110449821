#include "serve/ledger.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/archive.hpp"  // PersistError
#include "common/json.hpp"
#include "persist/atomic_file.hpp"

namespace msim::serve {

namespace {

std::string header_line(std::uint64_t next_id) {
  return "{\"msim_job_ledger\": " + std::to_string(kLedgerFormatVersion) +
         ", \"next_id\": " + std::to_string(next_id) + "}\n";
}

std::string accepted_line(const LedgerJob& job) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("record", "accepted");
  w.kv("id", job.id);
  w.kv("priority", std::int64_t{job.priority});
  w.kv("sweep", job.sweep);
  if (!job.idempotency_key.empty()) {
    w.kv("idempotency_key", job.idempotency_key);
  }
  if (job.ttl_ms != 0) w.kv("ttl_ms", job.ttl_ms);
  w.key("config");
  w.begin_object();
  for (const auto& [key, value] : job.kv.entries()) w.kv(key, value);
  w.end_object();
  w.end_object();
  os << '\n';
  return os.str();
}

std::string transition_line(std::string_view record, std::uint64_t id,
                            std::string_view field, std::string_view text) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("record", record);
  w.kv("id", id);
  if (!field.empty()) w.kv(field, text);
  w.end_object();
  os << '\n';
  return os.str();
}

/// Decodes one record and merges it into its job, all or nothing: the job
/// is updated on a copy and committed only once every field decoded, so a
/// bad record (unknown kind, missing or mistyped field) changes nothing and
/// -- through AppendLog::scan -- ends the valid prefix.  Records can reach
/// the file in near-but-not-exact order (the queue fires its transition
/// hook outside its lock, so a job's `running` may land before its
/// `accepted`), so the merge is keyed by id and tolerant of interleaving.
void apply_record(std::map<std::uint64_t, LedgerJob>& jobs,
                  std::set<std::uint64_t>& accepted, std::string_view text) {
  using Log = persist::AppendLog;
  const JsonValue rec = JsonValue::parse(text);
  const auto kind = Log::field<std::string>(rec, "record");
  const auto id = Log::field<std::uint64_t>(rec, "id");
  const auto it = jobs.find(id);
  LedgerJob job = it == jobs.end() ? LedgerJob{} : it->second;
  job.id = id;
  if (kind == "accepted") {
    job.priority = Log::field<int>(rec, "priority");
    job.sweep = Log::field<bool>(rec, "sweep");
    if (rec.contains("idempotency_key")) {
      job.idempotency_key = Log::field<std::string>(rec, "idempotency_key");
    }
    if (rec.contains("ttl_ms")) job.ttl_ms = Log::field<std::uint64_t>(rec, "ttl_ms");
    KvConfig kv;
    using Config = std::map<std::string, std::string>;
    for (auto& [key, value] : Log::field<Config>(rec, "config")) kv.set(key, value);
    job.kv = std::move(kv);
  } else if (kind == "running") {
    job.started = true;
  } else {
    // Terminal records are named after their state (job_state_name).
    job.state = JobState::kQueued;
    for (const JobState s : {JobState::kDone, JobState::kFailed,
                             JobState::kCancelled, JobState::kExpired}) {
      if (kind == job_state_name(s)) job.state = s;
    }
    if (job.state == JobState::kQueued) {
      throw persist::PersistError("unknown ledger record kind '" + kind + "'");
    }
    job.terminal = true;
    if (job.state == JobState::kDone) {
      job.result_path = Log::field<std::string>(rec, "result_path");
    } else if (rec.contains("error")) {
      job.error = Log::field<std::string>(rec, "error");
    }
  }
  jobs[id] = std::move(job);
  if (kind == "accepted") accepted.insert(id);
}

}  // namespace

std::string JobLedger::result_path(const std::string& dir, std::uint64_t id) {
  return dir + "/job" + std::to_string(id) + ".result.json";
}

JobLedger::JobLedger(const std::string& dir) : path_(dir + "/ledger.jsonl") {
  // No file yet: first start in this directory.
  if (const auto existing = persist::read_file_if_present(path_)) {
    // Replay: strict header, then records up to the first torn or bad line
    // -- everything before it counts.
    std::map<std::uint64_t, LedgerJob> jobs;
    std::set<std::uint64_t> accepted;
    (void)persist::AppendLog::scan(
        *existing, path_,
        [&](std::string_view text) {
          using Log = persist::AppendLog;
          const JsonValue header =
              Log::parse_header(text, "msim_job_ledger", path_, "msim job ledger");
          const auto version = Log::field<std::uint32_t>(header, "msim_job_ledger");
          if (version > kLedgerFormatVersion) {
            throw persist::PersistError(
                "'" + path_ + "' was written by ledger format version " +
                std::to_string(version) + " but this binary understands up to " +
                std::to_string(kLedgerFormatVersion) +
                "; run a newer msim_serve on this --journal-dir, or point this "
                "one at a fresh directory");
          }
          next_id_ = Log::field<std::uint64_t>(header, "next_id");
        },
        [&](std::string_view text) {
          apply_record(jobs, accepted, text);
          return true;
        });
    recovered_.reserve(jobs.size());
    for (auto& [id, job] : jobs) {
      next_id_ = std::max(next_id_, id + 1);
      // Transitions whose `accepted` never reached the file carry no
      // request to re-run; the id still stays reserved.
      if (accepted.count(id) != 0) recovered_.push_back(std::move(job));
    }
  }

  // Compact: rewrite the merged state atomically (fresh header carrying the
  // persisted id counter, one `accepted` per live job plus its terminal
  // record), then reopen for appends.  This both bounds the file's size and
  // cuts any torn tail in one step -- the rename is the commit point.
  std::string compacted = header_line(next_id_);
  for (const LedgerJob& job : recovered_) {
    compacted += accepted_line(job);
    if (job.terminal) {
      const bool done = job.state == JobState::kDone;
      compacted += transition_line(job_state_name(job.state), job.id,
                                   done ? "result_path" : "error",
                                   done ? job.result_path : job.error);
    }
    // `running` records are deliberately dropped: a non-terminal job is
    // re-enqueued by recovery, and its journal (not the ledger) knows which
    // sweep cells finished.
  }
  log_.emplace(persist::AppendLog::create(path_, compacted, kSyncEvery));
}

void JobLedger::append_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  log_->append(line);
}

void JobLedger::record_accepted(const Job& job) {
  LedgerJob rec;
  rec.id = job.id;
  rec.priority = job.priority;
  rec.idempotency_key = job.idempotency_key;
  rec.ttl_ms = job.ttl_ms;
  rec.sweep = job.is_sweep;
  rec.kv = job.kv;
  append_line(accepted_line(rec));
}

void JobLedger::record_running(std::uint64_t id) {
  append_line(transition_line("running", id, "", ""));
}

void JobLedger::record_done(std::uint64_t id, const std::string& result_path) {
  append_line(transition_line("done", id, "result_path", result_path));
}

void JobLedger::record_failed(std::uint64_t id, const std::string& error) {
  append_line(transition_line("failed", id, "error", error));
}

void JobLedger::record_cancelled(std::uint64_t id, const std::string& error) {
  append_line(transition_line("cancelled", id, "error", error));
}

void JobLedger::record_expired(std::uint64_t id, const std::string& error) {
  append_line(transition_line("expired", id, "error", error));
}

}  // namespace msim::serve
