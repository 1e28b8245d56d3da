// Frozen cold-path admissions for tests/test_cold_path.cpp.
//
// Captured at commit 82315ec, before the candidate-evaluation and
// repair-loop rewrites, by running exactly the admissions the test builds.
// Never regenerate these values: they pin the served results of the code
// as it was, so every later optimisation must reproduce them bit for bit.
// Factors are hex-float literals, so comparisons are exact.
#pragma once

#include <array>
#include <cstdint>

#include "util/types.hpp"

namespace streamsched::golden {

struct ColdRepair {
  bool success;
  std::uint32_t rounds;
  std::uint32_t added_comms;
  bool period_exceeded;
};

struct ColdEventRepair {
  bool success;
  std::uint32_t rounds;
  std::uint32_t added_comms;
};

/// One admission: the escalation factor served, the fingerprint of the
/// served (count-repaired) schedule and its repair statistics; then the
/// event repair for kColdEventFailureSet and the fingerprint after it.
struct ColdAdmission {
  double factor;
  std::uint64_t fingerprint;
  ColdRepair repair;
  ColdEventRepair event;
  std::uint64_t event_fingerprint;
};

inline constexpr std::array<const char*, 4> kColdVariants = {
    "ltf", "rltf", "ltf[one_to_one=off]", "rltf[rule1=off]"};

inline constexpr std::array<std::uint64_t, 16> kColdSeeds = {
    101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116};

inline constexpr std::array<ProcId, 3> kColdEventFailureSet = {3, 7, 12};

// [variant][seed], in kColdVariants x kColdSeeds order.
inline const ColdAdmission kColdAdmissions[4][16] = {
    {
        // ltf
        {0x1.b333333333333p+0, 0xe764baf2365818bbULL, {true, 1, 1, false}, {true, 0, 0}, 0xe764baf2365818bbULL},
        {0x1.b333333333333p+0, 0xd0549aa06620010dULL, {true, 1, 1, false}, {true, 0, 0}, 0xd0549aa06620010dULL},
        {0x1.4cccccccccccdp+0, 0x5e3ec6ee99cd9b4bULL, {true, 2, 2, false}, {false, 0, 0}, 0x5e3ec6ee99cd9b4bULL},
        {0x1p+0, 0x19f84d893103bf62ULL, {true, 5, 5, false}, {true, 0, 0}, 0x19f84d893103bf62ULL},
        {0x1p+0, 0x1f95c36e9f6430c5ULL, {true, 17, 18, true}, {true, 0, 0}, 0x1f95c36e9f6430c5ULL},
        {0x1.b333333333333p+0, 0x57f518f29921ee08ULL, {true, 0, 0, false}, {true, 0, 0}, 0x57f518f29921ee08ULL},
        {0x1.4cccccccccccdp+0, 0x885d91cc9c17f528ULL, {true, 2, 3, true}, {true, 0, 0}, 0x885d91cc9c17f528ULL},
        {0x1p+0, 0x0e23903f4c3c670eULL, {true, 3, 3, true}, {true, 1, 1}, 0x65e711fe3bd3845dULL},
        {0x1p+0, 0x0116bab2863cd974ULL, {true, 1, 1, false}, {false, 0, 0}, 0x0116bab2863cd974ULL},
        {0x1.4cccccccccccdp+0, 0x57f4cb79ac8cb2dfULL, {true, 8, 10, false}, {true, 0, 0}, 0x57f4cb79ac8cb2dfULL},
        {0x1.4cccccccccccdp+0, 0x446a3a34567baa62ULL, {true, 4, 4, true}, {true, 0, 0}, 0x446a3a34567baa62ULL},
        {0x1.4cccccccccccdp+0, 0x6ebe6025c2238ee6ULL, {true, 5, 5, false}, {false, 0, 0}, 0x6ebe6025c2238ee6ULL},
        {0x1p+0, 0xf9163b9f99aaecdbULL, {true, 17, 19, true}, {true, 0, 0}, 0xf9163b9f99aaecdbULL},
        {0x1.4cccccccccccdp+0, 0xbb6f71e68e3a32b6ULL, {true, 2, 2, false}, {true, 0, 0}, 0xbb6f71e68e3a32b6ULL},
        {0x1.4cccccccccccdp+0, 0x15e3ca49f1b3e3e7ULL, {true, 5, 5, true}, {true, 0, 0}, 0x15e3ca49f1b3e3e7ULL},
        {0x1.b333333333333p+0, 0x01b89c50813665e2ULL, {true, 4, 4, false}, {true, 1, 1}, 0xa78f5e32de2465e8ULL},
    },
    {
        // rltf
        {0x1p+0, 0x1cbdfa8bcdf0e4ceULL, {true, 266, 342, false}, {true, 2, 4}, 0xb0a2dbd51f9dbae0ULL},
        {0x1p+0, 0xe9705fb3c301434fULL, {true, 317, 449, false}, {true, 1, 2}, 0xf60b7c2966bd47c2ULL},
        {0x1p+0, 0x33d3d89ea5418f8cULL, {true, 278, 407, false}, {true, 1, 1}, 0x4f81c898cba1b7cbULL},
        {0x1p+0, 0x04fecbeb800dab2dULL, {true, 378, 562, false}, {true, 10, 10}, 0xb70c31379cced1c6ULL},
        {0x1p+0, 0xaf17c7233d7a1b22ULL, {true, 261, 317, false}, {true, 2, 2}, 0x3c8ebdb528b3cad1ULL},
        {0x1p+0, 0x8e41f163fad4b4edULL, {true, 259, 395, false}, {true, 0, 0}, 0x8e41f163fad4b4edULL},
        {0x1p+0, 0x9096721c99ead41aULL, {true, 306, 389, false}, {true, 0, 0}, 0x9096721c99ead41aULL},
        {0x1p+0, 0xd6f3b76455e7c0b3ULL, {true, 185, 264, false}, {true, 0, 0}, 0xd6f3b76455e7c0b3ULL},
        {0x1p+0, 0x6ceb19bd7b2c0af8ULL, {true, 289, 364, false}, {true, 4, 4}, 0x370d9cd5537e27d0ULL},
        {0x1p+0, 0x239c8422092f848dULL, {true, 259, 420, false}, {true, 2, 3}, 0x1e44c65fae2eb4c8ULL},
        {0x1p+0, 0x2d7cae5efdd4b426ULL, {true, 380, 547, false}, {true, 0, 0}, 0x2d7cae5efdd4b426ULL},
        {0x1p+0, 0x05c6fa5c104d0eaaULL, {true, 272, 359, false}, {true, 11, 11}, 0x9ee581cb96e2b781ULL},
        {0x1p+0, 0x02c9cbc005adbc15ULL, {true, 284, 364, false}, {true, 0, 0}, 0x02c9cbc005adbc15ULL},
        {0x1p+0, 0x93953e9122319b3dULL, {true, 318, 473, false}, {true, 4, 6}, 0xbddfac7dc57d4cd0ULL},
        {0x1p+0, 0x3afdfa1ef4d39a3aULL, {true, 338, 426, false}, {true, 0, 0}, 0x3afdfa1ef4d39a3aULL},
        {0x1p+0, 0xe0c389a44aff2b68ULL, {true, 248, 316, false}, {true, 3, 4}, 0x86479a1404e80ac3ULL},
    },
    {
        // ltf[one_to_one=off]
        {0x1.4cccccccccccdp+0, 0x7cd08b2b544fb2ceULL, {true, 0, 0, false}, {true, 0, 0}, 0x7cd08b2b544fb2ceULL},
        {0x1.4cccccccccccdp+0, 0x4bb4fe9c57e505d0ULL, {true, 0, 0, false}, {true, 0, 0}, 0x4bb4fe9c57e505d0ULL},
        {0x1.4cccccccccccdp+0, 0x03e6442187271f03ULL, {true, 0, 0, false}, {true, 0, 0}, 0x03e6442187271f03ULL},
        {0x1.b333333333333p+0, 0x270ad2593aafee7bULL, {true, 0, 0, false}, {true, 0, 0}, 0x270ad2593aafee7bULL},
        {0x1.b333333333333p+0, 0xb881e335c3e6f0c0ULL, {true, 0, 0, false}, {true, 0, 0}, 0xb881e335c3e6f0c0ULL},
        {0x1.b333333333333p+0, 0x10945a7e2438a6f1ULL, {true, 0, 0, false}, {true, 0, 0}, 0x10945a7e2438a6f1ULL},
        {0x1.4cccccccccccdp+0, 0x5af9afab2594d6f5ULL, {true, 0, 0, false}, {false, 0, 0}, 0x5af9afab2594d6f5ULL},
        {0x1.4cccccccccccdp+0, 0xae47fc303f765ee2ULL, {true, 0, 0, false}, {true, 0, 0}, 0xae47fc303f765ee2ULL},
        {0x1.4cccccccccccdp+0, 0x45a87e1221db4da3ULL, {true, 0, 0, false}, {true, 0, 0}, 0x45a87e1221db4da3ULL},
        {0x1.b333333333333p+0, 0x6191d22c5a4b1ad9ULL, {true, 0, 0, false}, {true, 0, 0}, 0x6191d22c5a4b1ad9ULL},
        {0x1.4cccccccccccdp+0, 0x63cded258c6609c7ULL, {true, 0, 0, false}, {false, 0, 0}, 0x63cded258c6609c7ULL},
        {0x1.b333333333333p+0, 0x32bba21afab5e89cULL, {true, 0, 0, false}, {false, 0, 0}, 0x32bba21afab5e89cULL},
        {0x1.4cccccccccccdp+0, 0x6a173ba40bc131d6ULL, {true, 0, 0, false}, {true, 0, 0}, 0x6a173ba40bc131d6ULL},
        {0x1.b333333333333p+0, 0x9eb64be293b9a240ULL, {true, 0, 0, false}, {true, 0, 0}, 0x9eb64be293b9a240ULL},
        {0x1.b333333333333p+0, 0x619e5c2ea08d1423ULL, {true, 0, 0, false}, {true, 0, 0}, 0x619e5c2ea08d1423ULL},
        {0x1.4cccccccccccdp+0, 0xdc35a2cc3826299cULL, {true, 0, 0, false}, {true, 0, 0}, 0xdc35a2cc3826299cULL},
    },
    {
        // rltf[rule1=off]
        {0x1p+0, 0x9dd9356271dfad4fULL, {true, 222, 312, false}, {true, 1, 2}, 0x1568741bae6474a3ULL},
        {0x1p+0, 0x618204eebbb09c91ULL, {true, 317, 449, false}, {true, 1, 2}, 0x273ef66f3befafa8ULL},
        {0x1p+0, 0xb596a4c0c9252fc9ULL, {true, 266, 361, false}, {true, 2, 3}, 0xc3e3fa2a749cbabeULL},
        {0x1p+0, 0x04fecbeb800dab2dULL, {true, 378, 562, false}, {true, 10, 10}, 0xb70c31379cced1c6ULL},
        {0x1p+0, 0xa9e6c6d12cb9449dULL, {true, 261, 322, false}, {true, 0, 0}, 0xa9e6c6d12cb9449dULL},
        {0x1p+0, 0xb382ab15300e1b0fULL, {true, 252, 409, false}, {true, 0, 0}, 0xb382ab15300e1b0fULL},
        {0x1p+0, 0xc08b3f75a743a737ULL, {true, 286, 387, false}, {true, 4, 4}, 0x21760407848a51e7ULL},
        {0x1p+0, 0x030c56d007f7fc4bULL, {true, 197, 280, false}, {true, 0, 0}, 0x030c56d007f7fc4bULL},
        {0x1p+0, 0x407aa8521bc224ecULL, {true, 293, 401, false}, {true, 4, 5}, 0xb2c7ed1d9b2d5df4ULL},
        {0x1p+0, 0x53a82fc3f41e463eULL, {true, 279, 410, false}, {true, 2, 5}, 0x2cd4d6d3a08cbb4fULL},
        {0x1p+0, 0x058983e88b0b61baULL, {true, 383, 545, false}, {true, 2, 6}, 0x627af514740f4d08ULL},
        {0x1p+0, 0x9a2571aa2728af3bULL, {true, 209, 310, false}, {true, 1, 4}, 0xeb4b8875684201e9ULL},
        {0x1p+0, 0x40e2035897b4e3aeULL, {true, 279, 341, false}, {true, 0, 0}, 0x40e2035897b4e3aeULL},
        {0x1p+0, 0x59d2f5055b4bf2c1ULL, {true, 292, 437, false}, {true, 16, 23}, 0x7c4981478455bddbULL},
        {0x1p+0, 0x043066e7081c613fULL, {true, 358, 449, false}, {true, 2, 3}, 0xd88600ec1e096f3cULL},
        {0x1p+0, 0x36f5cf5842fc8f14ULL, {true, 248, 330, false}, {true, 2, 2}, 0x427d58362b8c4430ULL},
    },
};

// Probabilistic cold admissions, captured at commit 1314bc7, before the
// failure-set tree was memoised and verified by its frontier, by running
// exactly the admissions ColdPath.ProbAdmissionsMatchGolden builds: each
// through `PlacementDaemon::admit` on the server's default platform
// (16 processors, seed 42), with a fresh 26-task layered DAG from `seed`,
// the period calibrated at the request's default headroom. The same rule
// holds: never regenerate these values.
//
// One admission: its inputs, then the served schedule's fingerprint, the
// admission repair's statistics and the served reliability.
struct ProbAdmission {
  std::uint64_t seed;
  const char* variant;
  const char* model;
  std::uint64_t fingerprint;
  bool success;
  std::uint32_t rounds;
  std::uint32_t added_comms;
  double reliability;
};

inline const ProbAdmission kProbAdmissions[24] = {
    {301, "rltf", "prob:R=0.999", 0xb3011252441b59d8ULL, true, 3, 181, 0x1.ff99357991f09p-1},
    {302, "rltf", "prob:R=0.999", 0xa38a434e45851a1cULL, true, 4, 198, 0x1.ff8d048280eeep-1},
    {303, "rltf", "prob:R=0.999", 0x6f0ca788c6f30ba0ULL, true, 5, 153, 0x1.ffbf19e434d91p-1},
    {304, "ltf", "prob:R=0.999", 0x3faaa93eeaec1addULL, true, 2, 34, 0x1.ffe2bce8d015fp-1},
    {305, "rltf", "prob:R=0.999", 0x5cbd717d094fe3e6ULL, true, 4, 129, 0x1.ff9bf76a1a1b9p-1},
    {306, "rltf", "prob:R=0.99", 0xc97d3849c187aaeaULL, true, 2, 121, 0x1.fb57a780b3255p-1},
    {307, "rltf", "prob:R=0.999", 0x7b72d4cceecfb20bULL, true, 5, 173, 0x1.ff86aeab464a8p-1},
    {308, "rltf", "prob:R=0.999", 0x3e495977b69439b8ULL, true, 7, 334, 0x1.ffc687c2c642fp-1},
    {309, "rltf", "prob:R=0.999", 0x869142e5fc21622dULL, true, 4, 212, 0x1.ff807f2e86b8ep-1},
    {310, "rltf", "prob:R=0.999", 0xa6e89261e37cec17ULL, true, 3, 124, 0x1.ff9870debc555p-1},
    {311, "ltf", "prob:R=0.999", 0xd57d05f6a2335b67ULL, true, 1, 35, 0x1.ff9726bf029a9p-1},
    {312, "rltf", "prob:R=0.999", 0xfafda2ed15fe6e64ULL, true, 4, 145, 0x1.ffac1ace8984fp-1},
    {313, "rltf", "prob:R=0.99", 0xade5b2d9c9709ee3ULL, true, 2, 123, 0x1.fbf1608643ed3p-1},
    {314, "rltf", "prob:R=0.999", 0xb8f4aa85e51f1e0bULL, true, 5, 215, 0x1.ff9e21c40e233p-1},
    {315, "rltf", "prob:R=0.999", 0x088b2460d70640f5ULL, true, 5, 156, 0x1.ff8918930af0fp-1},
    {316, "rltf", "prob:R=0.999", 0xff0462c77f13ea38ULL, true, 5, 200, 0x1.ffb9cbcbe1692p-1},
    {317, "rltf", "prob:R=0.999", 0xa17039c72aaff95eULL, true, 4, 181, 0x1.ffb96c676f359p-1},
    {318, "ltf", "prob:R=0.999", 0xae9a56451b1e297aULL, true, 1, 18, 0x1.ffcd31e42c721p-1},
    {319, "rltf", "prob:R=0.999", 0x5c7206308b2c01d5ULL, true, 4, 196, 0x1.ff8703d0ddb83p-1},
    {320, "rltf", "prob:R=0.99", 0xdf6679bf7f920597ULL, true, 3, 166, 0x1.fcbff2a9aeb22p-1},
    {321, "rltf", "prob:R=0.999", 0x1383d6eb399675d4ULL, true, 6, 261, 0x1.ffbc9bc76242cp-1},
    {322, "rltf", "prob:R=0.999", 0x2683cb60c415f6f1ULL, true, 4, 265, 0x1.ffaa76951059cp-1},
    {323, "rltf", "prob:R=0.999", 0x866dc8d9601a9196ULL, true, 5, 228, 0x1.ff99f0d1f30bap-1},
    {324, "rltf", "prob:R=0.999", 0x780b0f5f44c820bdULL, true, 7, 369, 0x1.ffa310d790564p-1},
};

}  // namespace streamsched::golden
