// Probes of mode=sampled and the layers it is built from, run in
// exact_4t's traced pass: sim::run_sampled + sim::write_sampled_json on
// exact_4t's 2op_block_ooo configuration (region 20000, detail_warmup 2000,
// pilot 5000), the functional fast path, trace generation and Pipeline
// save/load through an in-memory persist::Archive.
#include <cmath>
#include <sstream>

#include "bench.hpp"
#include "common/archive.hpp"
#include "sim/sampled.hpp"
#include "smt/pipeline.hpp"
#include "trace/generator.hpp"

namespace msimbench {
namespace {

constexpr std::uint64_t kFunctionalProbeInsts = 500'000;  // per thread
constexpr std::uint64_t kGeneratorProbeInsts = 1'000'000;  // per profile
constexpr std::uint64_t kArchiveWarmup = 20'000;
constexpr int kArchiveRepeats = 5;

struct Pass {
  msim::sim::SampledResult result;
  std::string json;
  double run_s = 0.0;
};

Pass run_pass(const msim::sim::RunConfig& cfg, const msim::sim::SampledConfig& scfg,
              SpanRecorder* spans) {
  Pass p;
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope s(spans, "sim.run_sampled");
    p.result = msim::sim::run_sampled(cfg, scfg);
  }
  p.run_s = seconds_since(t0);
  std::ostringstream os;
  {
    SpanRecorder::Scope s(spans, "sim.report");
    msim::sim::write_sampled_json(os, cfg, scfg, p.result);
  }
  p.json = os.str();
  return p;
}

}  // namespace

void probe_sampling_layers(const msim::sim::RunConfig& cfg, SpanRecorder& spans,
                           Report& report) {
  const auto profiles = load_profiles(cfg);
  {
    SpanRecorder::Scope root(&spans, "bench.functional_probe");
    msim::smt::Pipeline pipe(cfg.machine(), profiles, cfg.seed);
    const auto t0 = Clock::now();
    std::uint64_t executed = 0;
    {
      SpanRecorder::Scope s(&spans, "smt.run_functional");
      for (const msim::smt::FunctionalDelta& d :
           pipe.run_functional(kFunctionalProbeInsts)) {
        executed += d.instructions;
      }
    }
    report.metric("smt.functional_ns_per_inst",
                  seconds_since(t0) * 1e9 / static_cast<double>(executed), "ns");
  }
  {
    SpanRecorder::Scope root(&spans, "bench.generator_probe");
    double secs = 0.0;
    std::uint64_t insts = 0;
    for (const msim::trace::BenchmarkProfile& profile : profiles) {
      SpanRecorder::Scope s(&spans, "trace.next", std::string(profile.name));
      msim::trace::TraceGenerator gen(profile, cfg.seed);
      std::uint64_t sink = 0;
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < kGeneratorProbeInsts; ++i) sink += gen.next().pc;
      secs += seconds_since(t0);
      insts += kGeneratorProbeInsts;
      report.check(sink != 0, "trace generator produced only zero PCs");
    }
    report.metric("trace.gen_ns_per_inst", secs * 1e9 / static_cast<double>(insts),
                  "ns");
  }
  {
    SpanRecorder::Scope root(&spans, "bench.archive_probe");
    msim::smt::Pipeline warm(cfg.machine(), profiles, cfg.seed);
    warm.run(kArchiveWarmup);
    std::vector<double> save_us;
    std::vector<double> load_us;
    for (int i = 0; i < kArchiveRepeats; ++i) {
      msim::persist::Archive saver = msim::persist::Archive::saver();
      auto t0 = Clock::now();
      {
        SpanRecorder::Scope s(&spans, "persist.save_state");
        warm.save_state(saver);
      }
      save_us.push_back(seconds_since(t0) * 1e6);
      msim::smt::Pipeline fresh(cfg.machine(), profiles, cfg.seed);
      msim::persist::Archive loader = msim::persist::Archive::loader(saver.bytes());
      t0 = Clock::now();
      {
        SpanRecorder::Scope s(&spans, "persist.load_state");
        fresh.load_state(loader);
      }
      load_us.push_back(seconds_since(t0) * 1e6);
      report.attempt();
      const bool same = fresh.commit_digest() == warm.commit_digest() &&
                        fresh.absolute_cycle() == warm.absolute_cycle();
      report.check(same, "Archive round trip changed the pipeline state");
      if (!same) report.fail();
    }
    report.metric("persist.archive_save_us", median(save_us), "us");
    report.metric("persist.archive_load_us", median(load_us), "us");
  }
}

void probe_sampled_mode(const msim::sim::RunConfig& cfg,
                        const msim::sim::RunResult& exact, SpanRecorder& spans,
                        Report& report) {
  msim::sim::SampledConfig scfg;
  scfg.region_length = 20'000;
  scfg.detail_warmup = 2'000;
  scfg.pilot = 5'000;
  scfg.validate(cfg);
  report.attempt(2);
  const Pass untraced = run_pass(cfg, scfg, nullptr);
  Pass traced;
  {
    SpanRecorder::Scope root(&spans, "bench.sampled");
    traced = run_pass(cfg, scfg, &spans);
  }
  const bool repeats = traced.result.sampled_digest == untraced.result.sampled_digest &&
                       traced.json == untraced.json;
  report.check(repeats, "sampled_digest or sampled report bytes changed between "
                        "two run_sampled passes");
  if (!repeats) report.fail();

  const msim::sim::SampledResult& r = untraced.result;
  report.metric("sim.run_s.sampled", untraced.run_s, "s");
  report.metric("sim.sampled.effective_kips",
                static_cast<double>(r.exact_equivalent_instructions) /
                    untraced.run_s / 1e3,
                "k-inst/s");
  // Against the exact run of the same configuration, seed and span.  Not
  // gated: docs/SAMPLING.md's 3% contract is for long spans (README.md).
  report.metric("sim.sampled.ipc_err_pct",
                std::fabs(r.est_ipc - exact.throughput_ipc) / exact.throughput_ipc *
                    100.0,
                "%");
  report.metric("sim.sampled.regions", static_cast<double>(r.regions_total), "count");
  report.metric("sim.sampled.clusters", static_cast<double>(r.clusters), "count");
  report.metric("sim.sampled.functional_insts",
                static_cast<double>(r.functional_instructions), "count");
  report.metric("sim.sampled.detailed_insts",
                static_cast<double>(r.detailed_committed), "count");
  report.metric("sim.sampled.detail_frac",
                static_cast<double>(r.detailed_committed) /
                    static_cast<double>(r.exact_equivalent_instructions),
                "ratio");
}

}  // namespace msimbench
