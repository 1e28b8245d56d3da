// Frozen parity values for the event simulator and the reliability
// estimator (tests/test_sim_program.cpp, tests/test_survival.cpp).
//
// The entries up to kRepairCrossedChains were captured at commit f2b5308,
// the last one that still had the pre-compilation event engine
// (`simulate_legacy`) and the per-set reliability kernels
// (`SurvivalKernel::kLegacy` / `kOracle`), by running those paths on
// exactly the inputs the parity tests build. At capture,
// the compiled `SimProgram::run`, `simulate()` and the bit-sliced batch
// estimator (serial and threaded) produced the same values bit for bit,
// and every repaired schedule's `achieved` estimate equalled a
// from-scratch `schedule_reliability` of it. The tests now hold the
// surviving paths to these values instead of to the deleted code.
//
// Simulator entries are `test::sim_digest` values (every SimResult field
// and trace record). Estimates are {reliability, sets_checked, k_max,
// worst_failure, worst_failure_prob}; reliabilities are hex-float
// literals, so comparisons are bit-exact. Repairs are {success,
// added_comms, rounds, comms_digest of the appended comms, achieved}.
#pragma once

#include <cstdint>

#include "parity_digest.hpp"

namespace streamsched::golden {

// SimProgram.RandomizedParityWithLegacyEngine: seeds 11, 23, 37; per seed
// the eight `parity_scenarios` (two disciplines x clean, fail-silent set,
// timed failure, failure at t = 0).
inline constexpr std::uint64_t kSimRandomized[3][8] = {
    {
        0xa28053b3d0b63e9eULL, 0x2bd19c868d8d5ebdULL, 0x53669934ad5f0983ULL, 0xee7bd1f6708915c2ULL,
        0xf176295146118af6ULL, 0x22d1256377af690eULL, 0xa5505c0a806b9fc7ULL, 0xda37b2d9cb69f9e8ULL
    },
    {
        0xcb0a175e0be038b7ULL, 0xea9f3bbbd3d024acULL, 0x15779f1ad2018379ULL, 0xb453992c78ac9d7cULL,
        0xb262562987d8cd64ULL, 0xaf665b9a677ba37cULL, 0xe02ccff2a20e978aULL, 0x3be17c613058c67cULL
    },
    {
        0x6b1bcb61cd9edfe6ULL, 0xa06926a10e450e2bULL, 0xc0fe575de2c09e31ULL, 0x44f622923ceed815ULL,
        0x3628808fbd5ef360ULL, 0x05d0c5783303e14cULL, 0x284435e7a6ebdbafULL, 0xc66e5fc63584f3bfULL
    },
};

// SimProgram.ParityOnLargerEpsAndPlatform (m = 12, eps = 3, seed 5).
inline constexpr std::uint64_t kSimLargerEps[8] = {
    0x202448fd3c6d77f8ULL, 0xe65403d9f756d561ULL, 0x0c035632441225c3ULL, 0xf44df3e3e597d69aULL,
    0x9a62c89c92d11ca5ULL, 0xb312c7a89dde66e6ULL, 0x9c09917540854bcdULL, 0x89042c8635942abcULL
};

// SimProgram.ParityAfterRepairAddsChannels (seed 7, repaired for eps = 2).
inline constexpr std::uint64_t kSimAfterRepair[8] = {
    0x92527db1d72ad609ULL, 0xff65475c11f472dbULL, 0x93b5dcad6f3c7162ULL, 0x14f192d0b8852667ULL,
    0x8e1265b6a38a1264ULL, 0xa63731e451d3fc02ULL, 0xd76025dfd461d0d6ULL, 0xb4b6e11343141270ULL
};

// SimProgram.StateSharableAcrossPrograms: schedule b (seed 19), then a
// (seed 17).
inline constexpr std::uint64_t kSimStateShared[2] = {0x3c0e13458204d7f3ULL, 0x3a72f97c2cbc53fbULL};

// SimProgram.CompiledOptionsAreStaticOnly: the clean run.
inline constexpr std::uint64_t kSimStaticOnlyClean = 0x36ebde5ed9b49bb6ULL;

// Survival.ExactReliabilityBitIdenticalAcrossKernels: seeds 3, 5, 8.
inline const test::EstimateGolden kExactAcrossKernels[3] = {
    {0x1.f97c5c5118084p-1, 64, 6, {1, 3, 4}, 0x1.7d4962c626c36p-10},
    {0x1.a7651ca131ea8p-1, 64, 6, {0, 4}, 0x1.03006bd8bc5a1p-6},
    {0x1.f03089524c3eap-1, 64, 6, {2, 3}, 0x1.ab946fde4b56ap-8},
};

// Survival.ExactReliabilityMatchesGoldenAtSixteenProcs (seed 23, m = 16).
inline const test::EstimateGolden kExactSixteenProcs =
    {0x1.c9fd1117630f2p-2, 65399, 13, {13}, 0x1.a26691c9b9a51p-6};

// Survival.MonteCarloIdenticalToLegacyAtOneThread (seed 13, 3000 samples).
inline const test::EstimateGolden kMonteCarloSeed13 =
    {0x1.d645722180484p-2, 3000, 10, {8}, 0x1.1e88e9417b84cp-4};

// Survival.MultiWordMasksAboveSixtyFourCopies (tail_tolerance 1e-2).
inline const test::EstimateGolden kExactSixtyFiveCopies =
    {0x1.fdbed49f427a5p-1, 47972, 3, {}, 0x0p+0};

// Survival.RepairToReliabilityParityAcrossKernels: seeds 4, 9, target
// 0.995 (legacy kernel).
inline const test::RepairGolden kRepairAcrossKernels[2] = {
    {false, 0, 0, 0x47fe0d7eaf8e51e3ULL,
     {0x1.f9b0c4a4c330ap-1, 64, 6, {0, 1}, 0x1.fd286dc4fa716p-8}},
    {false, 18, 1, 0xf6aca5c2af622478ULL,
     {0x1.dfd7fb77633ddp-1, 64, 6, {3, 4}, 0x1.31a97c647f918p-6}},
};

// Survival.IncrementalRepairMatchesFullReverification: crossed chains,
// target 0.8 (per-set kernel, full re-verification every round).
inline const test::RepairGolden kRepairCrossedChains =
    {true, 2, 1, 0xfeba36a18221f6e0ULL,
     {0x1.a7fcb923a29c7p-1, 16, 4, {0, 2}, 0x1.694467381d7dbp-5}};

// Multi-round exact repairs, captured at commit c45183b by running
// `repair_to_reliability` on exactly the inputs the tests below build. The
// repair goldens above all finish in one round at m <= 6; these two pin the
// later rounds, which re-verify only the still-killed failure sets, over
// both one-word (m = 16) and two-word (m = 66) failure-set rows. At
// capture, each `achieved` estimate equalled a from-scratch
// `schedule_reliability` of the repaired schedule.

// Survival.RepairMatchesGoldenOnColdProbShape: seed 4, m = 16, 26 tasks,
// eps 3, no scheduler repair, target 0.999, default options (k_max 10,
// 58,651 sets, six rounds).
inline const test::RepairGolden kRepairColdProbShape =
    {true, 279, 6, 0xd6f354b1964a6669ULL,
     {0x1.ffb8352ba52aap-1, 58651, 10, {8, 11, 14, 15}, 0x1.0dfe5a6c1b14ap-17}};

// Survival.RepairMatchesGoldenOnTwoWordRows: m = 66, crossed chain on
// processors 63, 64, 65 and 2, tail_tolerance 1e-2, target 0.999 (out of
// reach: the repair stops after two rounds once only unrepairable killing
// sets remain).
inline const test::RepairGolden kRepairTwoWordRows =
    {false, 2, 2, 0x83165e39c6af6920ULL,
     {0x1.fda8252e8d503p-1, 47972, 3, {2, 65}, 0x1.b8e6fc7a45e3fp-15}};

// Repairs whose rounds are decided short of the target at different
// levels of the failure-set tree, captured at commit fd92baa, before a
// round stopped verifying once its outcome was decided, by running
// `repair_to_reliability` on exactly the inputs the test builds. At
// capture, each `achieved` estimate equalled a from-scratch
// `schedule_reliability` of the repaired schedule.
// Survival.RepairMatchesGoldenWhereRoundsStopEarly:
//   [0], [1] the cold_prob shape (RepairMatchesGoldenOnColdProbShape) at
//       targets 0.9 (one round) and 0.99999 (out of reach: eleven rounds);
//   [2] the same schedule with p = 0.5 on processor 3 and 0.6 on
//       processor 10 (odds >= 1, so a set can outweigh its parent; k_max
//       11), target 0.99;
//   [3], [4] two-word rows: R-LTF at eps 2 on 66 processors, 20 tasks,
//       p in [0.005, 0.01], tail_tolerance 1e-2 (k_max 3), seeds 66001 at
//       target 0.999 (out of reach) and 66006 at 0.998.
inline const test::RepairGolden kRepairStopLevels[5] = {
    {true, 83, 1, 0xefd054ef2274faa7ULL,
     {0x1.ee2ca3fc02339p-1, 58651, 10, {8, 15}, 0x1.faf03088f81c7p-10}},
    {false, 341, 11, 0x0e7072af328e2a12ULL,
     {0x1.ffec4d94e3aadp-1, 58651, 10, {2, 9, 12, 15}, 0x1.fb3d3719bc2ap-18}},
    {true, 308, 7, 0x705ef123b8306396ULL,
     {0x1.fe9b2a31ebf5fp-1, 63019, 11, {2, 3, 10, 12}, 0x1.dcdf9398fecdp-12}},
    {false, 89, 4, 0x3b20920b33908774ULL,
     {0x1.ff41ace96c612p-1, 47972, 3, {3, 7, 11}, 0x1.e871a033b436p-22}},
    {true, 75, 2, 0x4799a9384bb4099bULL,
     {0x1.ff320c55c8d3cp-1, 47972, 3, {5, 7, 17}, 0x1.df86eafca1e98p-22}},
};

// Failure-set tree edge cases, captured at commit 1314bc7, before the
// truncated enumeration became one memoised prefix tree per platform, by
// running `schedule_reliability` and `repair_to_reliability` (target
// 0.999) on exactly the inputs Survival.TreeEdgeCasesMatchGolden builds:
// the schedule of RepairMatchesGoldenOnColdProbShape with its platform's
// failure probabilities overwritten. At capture, each `achieved` estimate
// equalled a from-scratch `schedule_reliability` of the repaired schedule.
//   [0] p = 0 on processors 1, 6 and 12 (a mix of p = 0 and p > 0);
//   [1] p = 1e-300 on processors 4 and 9, so every set holding both has a
//       positive probability whose weight underflows to 0.0;
//   [2] every p = 0 (k_max 0: only the empty set).
inline const test::EstimateGolden kTreeEdgeEstimates[3] = {
    {0x1.755724525e4f4p-1, 50643, 9, {3}, 0x1.139996764c82bp-5},
    {0x1.72bee22a9f726p-1, 50643, 9, {3}, 0x1.084332e47deaep-5},
    {0x1p+0, 1, 0, {}, 0x0p+0},
};
inline const test::RepairGolden kTreeEdgeRepairs[3] = {
    {true, 189, 3, 0xbbf75971a90f8491ULL, {0x1.ffbd04e915187p-1, 50643, 9, {2, 8, 9, 15}, 0x1.f843efedf4f84p-17}},
    {true, 250, 5, 0x7c45e60ced78cd39ULL, {0x1.ffac46334fe59p-1, 50643, 9, {8, 11, 14, 15}, 0x1.29f00088415p-17}},
    {true, 0, 0, 0x47fe0d7eaf8e51e3ULL, {0x1p+0, 1, 0, {}, 0x0p+0}},
};

}  // namespace streamsched::golden
