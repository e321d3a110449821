#include "trace/generator.hpp"

#include <array>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/profile.hpp"

namespace msim::trace {
namespace {

TEST(Generator, DeterministicForSameSeed) {
  const BenchmarkProfile& p = profile_or_throw("gcc");
  TraceGenerator a(p, 99), b(p, 99);
  for (int i = 0; i < 5000; ++i) {
    const isa::DynInst ia = a.next();
    const isa::DynInst ib = b.next();
    ASSERT_EQ(ia.pc, ib.pc);
    ASSERT_EQ(ia.op, ib.op);
    ASSERT_EQ(ia.dest, ib.dest);
    ASSERT_EQ(ia.src[0], ib.src[0]);
    ASSERT_EQ(ia.src[1], ib.src[1]);
    ASSERT_EQ(ia.mem_addr, ib.mem_addr);
    ASSERT_EQ(ia.taken, ib.taken);
    ASSERT_EQ(ia.next_pc, ib.next_pc);
  }
}

TEST(Generator, SequenceNumbersAreConsecutive) {
  TraceGenerator gen(profile_or_throw("gzip"), 1);
  for (SeqNum i = 0; i < 2000; ++i) {
    EXPECT_EQ(gen.next().seq, i);
  }
  EXPECT_EQ(gen.generated(), 2000u);
}

TEST(Generator, ControlFlowIsConsistent) {
  TraceGenerator gen(profile_or_throw("crafty"), 5);
  isa::DynInst prev = gen.next();
  for (int i = 0; i < 20000; ++i) {
    const isa::DynInst cur = gen.next();
    // The stream must follow the previous instruction's declared successor.
    ASSERT_EQ(cur.pc, prev.next_pc);
    if (!prev.is_branch()) {
      ASSERT_EQ(prev.next_pc, prev.pc + 4);
    } else if (!prev.taken) {
      // Not-taken branches may fall through (or wrap at the last block).
      // Fall-through is by far the common case; just check the flag logic.
      SUCCEED();
    }
    prev = cur;
  }
}

TEST(Generator, TakenBranchesJumpNotTakenFallThrough) {
  TraceGenerator gen(profile_or_throw("bzip2"), 6);
  int taken_jumps = 0;
  for (int i = 0; i < 20000; ++i) {
    const isa::DynInst inst = gen.next();
    if (!inst.is_branch()) continue;
    if (inst.taken) {
      if (inst.next_pc != inst.pc + 4) ++taken_jumps;
    } else {
      // A not-taken branch always falls through, except at the very last
      // block where the walk wraps.
      EXPECT_TRUE(inst.next_pc == inst.pc + 4 || inst.next_pc < inst.pc);
    }
  }
  EXPECT_GT(taken_jumps, 100);
}

class GeneratorPerProfile : public ::testing::TestWithParam<BenchmarkProfile> {};

TEST_P(GeneratorPerProfile, OpMixTracksProfileWeights) {
  const BenchmarkProfile& p = GetParam();
  TraceGenerator gen(p, 17);
  std::array<std::uint64_t, isa::kOpClassCount> counts{};
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(gen.next().op)];
  }
  // Branch frequency is structural (geometric block lengths with a cap),
  // so check it loosely; the remaining classes are sampled directly from
  // the profile mix and must track it conditioned on "not a branch".
  double weight_sum = 0.0;
  for (double w : p.op_weights) weight_sum += w;
  const auto branch_idx = static_cast<std::size_t>(isa::OpClass::kBranch);
  const double branch_expected = p.op_weights[branch_idx] / weight_sum;
  const double branch_actual = static_cast<double>(counts[branch_idx]) / kSamples;
  EXPECT_NEAR(branch_actual, branch_expected, branch_expected * 0.45 + 0.01) << p.name;

  const double non_branch_weight = weight_sum - p.op_weights[branch_idx];
  const double non_branch_samples = kSamples - static_cast<double>(counts[branch_idx]);
  for (std::size_t c = 0; c < isa::kOpClassCount; ++c) {
    if (c == branch_idx) continue;
    const double expected = p.op_weights[c] / non_branch_weight;
    const double actual = static_cast<double>(counts[c]) / non_branch_samples;
    EXPECT_NEAR(actual, expected, expected * 0.1 + 0.005)
        << p.name << " op " << isa::op_class_name(static_cast<isa::OpClass>(c));
  }
}

TEST_P(GeneratorPerProfile, AddressesStayInDeclaredRegions) {
  const BenchmarkProfile& p = GetParam();
  const AddressSpace layout = AddressSpace::for_thread(2);
  TraceGenerator gen(p, 23, layout);
  for (int i = 0; i < 20000; ++i) {
    const isa::DynInst inst = gen.next();
    ASSERT_GE(inst.pc, layout.code_base) << p.name;
    ASSERT_LT(inst.pc, layout.code_base + p.code_footprint + 4096) << p.name;
    if (inst.is_mem()) {
      ASSERT_EQ(inst.mem_addr % 8, 0u) << p.name;
      ASSERT_GE(inst.mem_addr, layout.data_base) << p.name;
      ASSERT_LT(inst.mem_addr, layout.data_base + p.data_footprint) << p.name;
    }
  }
}

TEST_P(GeneratorPerProfile, RegisterClassesAreConsistent) {
  const BenchmarkProfile& p = GetParam();
  TraceGenerator gen(p, 29);
  for (int i = 0; i < 20000; ++i) {
    const isa::DynInst inst = gen.next();
    using isa::OpClass;
    switch (inst.op) {
      case OpClass::kIntAlu:
      case OpClass::kIntMult:
      case OpClass::kIntDiv:
        ASSERT_TRUE(inst.has_dest());
        ASSERT_FALSE(isa::is_fp_arch_reg(inst.dest)) << p.name;
        break;
      case OpClass::kFpAdd:
      case OpClass::kFpMult:
      case OpClass::kFpDiv:
      case OpClass::kFpSqrt:
        ASSERT_TRUE(inst.has_dest());
        ASSERT_TRUE(isa::is_fp_arch_reg(inst.dest)) << p.name;
        for (ArchReg s : inst.src) {
          if (s != kNoArchReg) {
            ASSERT_TRUE(isa::is_fp_arch_reg(s)) << p.name;
          }
        }
        break;
      case OpClass::kStore:
        ASSERT_FALSE(inst.has_dest()) << p.name;
        break;
      case OpClass::kBranch:
        ASSERT_FALSE(inst.has_dest()) << p.name;
        break;
      case OpClass::kLoad:
        ASSERT_TRUE(inst.has_dest()) << p.name;
        // Address base is an integer register (or far/ready).
        if (inst.src[0] != kNoArchReg) {
          ASSERT_FALSE(isa::is_fp_arch_reg(inst.src[0])) << p.name;
        }
        break;
    }
    // At most two sources, never more (the 2OP_BLOCK premise).
    ASSERT_LE(inst.source_count(), 2u) << p.name;
  }
}

TEST_P(GeneratorPerProfile, SourceRegistersReferenceLiveProducers) {
  // A near source must name a register written within the last kDestPool
  // producers of its class; we verify the weaker invariant that it is a
  // valid architectural register of the right class and never the reserved
  // register 0.
  const BenchmarkProfile& p = GetParam();
  TraceGenerator gen(p, 31);
  for (int i = 0; i < 10000; ++i) {
    const isa::DynInst inst = gen.next();
    for (ArchReg s : inst.src) {
      if (s == kNoArchReg) continue;
      ASSERT_LT(s, isa::kArchRegCount) << p.name;
      ASSERT_NE(s % isa::kIntArchRegs, 0u) << p.name;  // reg 0 reserved
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, GeneratorPerProfile,
    ::testing::ValuesIn(all_profiles().begin(), all_profiles().end()),
    [](const ::testing::TestParamInfo<BenchmarkProfile>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Generator, BranchOutcomesAreSkewedPredictable) {
  // With a high predictable fraction, per-static-branch outcomes should be
  // heavily skewed toward one direction on average.
  TraceGenerator gen(profile_or_throw("swim"), 37);
  std::map<Addr, std::pair<std::uint64_t, std::uint64_t>> per_branch;  // taken/total
  for (int i = 0; i < 100000; ++i) {
    const isa::DynInst inst = gen.next();
    if (!inst.is_branch()) continue;
    auto& [taken, total] = per_branch[inst.pc];
    taken += inst.taken ? 1 : 0;
    ++total;
  }
  std::uint64_t skewed = 0, measured = 0;
  for (const auto& [pc, counts] : per_branch) {
    const auto& [taken, total] = counts;
    if (total < 20) continue;
    ++measured;
    const double frac = static_cast<double>(taken) / static_cast<double>(total);
    if (frac > 0.75 || frac < 0.25) ++skewed;
  }
  ASSERT_GT(measured, 10u);
  EXPECT_GT(static_cast<double>(skewed) / static_cast<double>(measured), 0.7);
}

TEST(Generator, DistinctThreadsGetDistinctAddressSpaces) {
  const AddressSpace a = AddressSpace::for_thread(0);
  const AddressSpace b = AddressSpace::for_thread(1);
  EXPECT_NE(a.code_base, b.code_base);
  EXPECT_NE(a.data_base, b.data_base);
}

TEST(Generator, StaticCfgScalesWithCodeFootprint) {
  BenchmarkProfile small = profile_or_throw("swim");
  BenchmarkProfile large = small;
  large.code_footprint = small.code_footprint * 4;
  TraceGenerator gs(small, 1), gl(large, 1);
  EXPECT_GT(gl.static_block_count(), gs.static_block_count() * 3);
}


// ---- wrong-path synthesis ------------------------------------------------------

TEST(WrongPath, SynthesisDoesNotDisturbTheArchitecturalWalk) {
  const BenchmarkProfile& p = profile_or_throw("gcc");
  TraceGenerator a(p, 77), b(p, 77);
  Rng wp_rng(123);
  for (int i = 0; i < 2000; ++i) {
    const isa::DynInst ia = a.next();
    if (i % 7 == 0) {
      (void)a.synthesize_wrong_path(ia.pc + 64, wp_rng);
    }
    const isa::DynInst ib = b.next();
    ASSERT_EQ(ia.pc, ib.pc);
    ASSERT_EQ(ia.src[0], ib.src[0]);
    ASSERT_EQ(ia.mem_addr, ib.mem_addr);
  }
}

TEST(WrongPath, SynthesizedInstructionsAreWellFormed) {
  const BenchmarkProfile& p = profile_or_throw("equake");
  const AddressSpace layout = AddressSpace::for_thread(1);
  TraceGenerator gen(p, 78, layout);
  Rng wp_rng(9);
  Addr pc = layout.code_base;
  for (int i = 0; i < 5000; ++i) {
    const isa::DynInst wi = gen.synthesize_wrong_path(pc, wp_rng);
    ASSERT_GE(wi.pc, layout.code_base);
    ASSERT_LE(wi.source_count(), 2u);
    if (wi.is_mem()) {
      ASSERT_GE(wi.mem_addr, layout.data_base);
      ASSERT_EQ(wi.mem_addr % 8, 0u);
    }
    pc = wi.is_branch() ? layout.code_base + (wp_rng.next_below(p.code_footprint) & ~Addr{3})
                        : wi.next_pc;
  }
}

TEST(WrongPath, BranchSlotsMatchTheRealStream) {
  // Every branch emitted by the real walk must sit on a branch slot, and
  // its synthesized twin at the same pc must also be a branch.
  const BenchmarkProfile& p = profile_or_throw("bzip2");
  TraceGenerator gen(p, 79);
  TraceGenerator probe(p, 79);
  Rng wp_rng(1);
  for (int i = 0; i < 5000; ++i) {
    const isa::DynInst inst = gen.next();
    EXPECT_EQ(probe.is_branch_slot(inst.pc), inst.is_branch()) << i;
    const isa::DynInst twin = probe.synthesize_wrong_path(inst.pc, wp_rng);
    EXPECT_EQ(twin.is_branch(), inst.is_branch()) << i;
    if (!inst.is_branch()) {
      EXPECT_EQ(probe.fallthrough_of(inst.pc), inst.pc + 4);
    }
  }
}

TEST(WrongPath, OutOfRangePcIsFolded) {
  const BenchmarkProfile& p = profile_or_throw("swim");
  TraceGenerator gen(p, 80);
  Rng wp_rng(2);
  const isa::DynInst wi = gen.synthesize_wrong_path(0xdead'beef'0000'0000, wp_rng);
  EXPECT_GE(wi.pc, AddressSpace{}.code_base);
}

}  // namespace
}  // namespace msim::trace
