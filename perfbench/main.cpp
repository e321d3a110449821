// msimbench: the repository benchmark program (see README.md).
//
//   msimbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--setup-only]
//
// Prints one line per metric and note, then a JSON result as the last line
// of stdout.  Exits 1 when a correctness check failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace msimbench {

// ---- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  for (const std::string& e : errors_) std::cout << "CHECK FAILED: " << e << "\n";
  for (const Metric& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", m.value);
    std::cout << m.name << " = " << buf << " " << m.unit << "\n";
  }
  std::ostringstream os;
  msim::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("correct", correct());
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

// ---- spans -----------------------------------------------------------------

namespace {
thread_local std::uint64_t t_open_span = 0;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::uint32_t SpanRecorder::thread_index() {
  const auto key = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const auto [it, inserted] =
      threads_.try_emplace(key, static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name,
                           std::string request)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  const double now = std::chrono::duration<double>(Clock::now() - rec_->epoch_).count();
  const std::lock_guard<std::mutex> lock(rec_->mu_);
  Span s;
  s.name = std::move(name);
  s.request = std::move(request);
  s.id = rec_->next_id_++;
  s.parent = t_open_span;
  s.tid = rec_->thread_index();
  s.start_s = now;
  index_ = rec_->spans_.size();
  saved_parent_ = t_open_span;
  t_open_span = s.id;
  rec_->spans_.push_back(std::move(s));
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const double now = std::chrono::duration<double>(Clock::now() - rec_->epoch_).count();
  const std::lock_guard<std::mutex> lock(rec_->mu_);
  rec_->spans_[index_].end_s = now;
  t_open_span = saved_parent_;
}

std::uint64_t SpanRecorder::current() { return t_open_span; }

std::uint64_t SpanRecorder::add(std::string name, std::string request,
                                std::uint64_t parent, Clock::time_point start,
                                Clock::time_point end,
                                std::optional<std::uint32_t> track) {
  const std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.request = std::move(request);
  s.id = next_id_++;
  s.parent = parent;
  s.tid = track ? *track : thread_index();
  s.start_s = std::chrono::duration<double>(start - epoch_).count();
  s.end_s = std::chrono::duration<double>(end - epoch_).count();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::layer_self_seconds() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> out;
  for (const Span& s : all) {
    // Self time = duration minus the union of the children's intervals
    // (clipped to the span), so overlapping children are not counted twice.
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  msim::JsonWriter w(out, 0);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("cat", s.name.substr(0, s.name.find('.')));
    w.kv("ph", "X");
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", std::uint64_t{s.tid});
    w.kv("ts", s.start_s * 1e6);
    w.kv("dur", (s.end_s - s.start_s) * 1e6);
    w.key("args");
    w.begin_object();
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    if (!s.request.empty()) w.kv("request", s.request);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

void report_spans(const Options& opts, const SpanRecorder& spans,
                  Report& report) {
  const std::string path = opts.work_dir + "/" + opts.workload + ".trace.json";
  spans.write_chrome_trace(path);
  report.note("chrome trace: " + path);
  for (const auto& [layer, secs] : spans.layer_self_seconds()) {
    report.metric(layer + ".self_s", secs, "s");
  }
}

// ---- helpers ---------------------------------------------------------------

msim::KvConfig kv_of(
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  msim::KvConfig kv;
  for (const auto& [k, v] : knobs) kv.set(k, v);
  return kv;
}

msim::sim::BuiltRun build_config(
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  msim::sim::BuiltRun built = msim::sim::build_run_config(kv_of(knobs));
  built.config.validate();
  return built;
}

std::vector<msim::trace::BenchmarkProfile> load_profiles(
    const msim::sim::RunConfig& cfg) {
  std::vector<msim::trace::BenchmarkProfile> out;
  for (const std::string& name : cfg.benchmarks) {
    out.push_back(msim::trace::profile_or_throw(name));
  }
  return out;
}

std::uint64_t input_seed(std::uint64_t seed, std::size_t input) {
  return input == 0 ? seed : msim::derive_stream_seed(seed, "perfbench", input);
}

bool fits(Clock::time_point start, double budget_s, std::size_t done,
          double typical_s) {
  return done == 0 || seconds_since(start) + typical_s <= budget_s;
}

// ---- process ---------------------------------------------------------------

void print_ready() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now().time_since_epoch())
                      .count();
  std::cout << "ready_ns " << ns << std::endl;
}

double peak_rss_mb_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace msimbench

namespace {

msimbench::Options parse(int argc, char** argv) {
  msimbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  std::filesystem::create_directories(o.work_dir);
  o.parallelism = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msimbench;
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return 2;
  }
  Report report;
  try {
    if (opts.workload == "exact_4t") {
      run_exact_4t(opts, report);
    } else if (opts.workload == "sweep_2t") {
      run_sweep_2t(opts, report);
    } else {
      std::cerr << "unknown workload '" << opts.workload
                << "' (exact_4t | sweep_2t)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
    report.fail();
  }
  if (opts.setup_only) return report.correct() ? 0 : 1;
  report.print();
  return report.correct() ? 0 : 1;
}
