// Frozen count and event repairs for tests/test_repair_golden.cpp.
//
// Captured at commit 7f0ebac, before the one-sweep count repair and the
// resumable LTF ladder, by running exactly the schedules and repairs the
// test builds. Never regenerate these values: every later change to the
// survival kernel, the repair loops or the schedulers must reproduce them
// bit for bit. Factors are hex-float literals, so comparisons are exact.
#pragma once

#include <array>
#include <cstdint>

namespace streamsched::golden {

/// One repair call: its statistics and the fingerprint of the schedule it
/// left behind.
struct RepairOutcome {
  bool success;
  std::uint32_t rounds;
  std::uint32_t added_comms;
  bool period_exceeded;
  std::uint64_t fingerprint;
};

/// One unrepaired schedule (algorithm, processors, eps, tasks, seed): the
/// escalation factor it needed and its fingerprint; the exhaustive
/// eps-failure check on it (verdict, sets checked, counterexample as a
/// processor bitmask); `repair_fault_tolerance(eps)` on a copy; the event
/// failure set (bitmask) and `repair_for_failure_set` for it on another copy.
struct RepairRecord {
  const char* algo;
  std::uint32_t m;
  std::uint32_t eps;
  std::uint32_t tasks;
  std::uint64_t seed;
  double factor;
  std::uint64_t fingerprint;
  bool valid;
  std::uint64_t sets_checked;
  std::uint64_t counterexample;
  RepairOutcome count;
  std::uint64_t event_set;
  RepairOutcome event;
};

/// The 65-copy schedule: the check for one failure, `repair_fault_tolerance`
/// for one failure, and `repair_for_failure_set` for {P0, P1, P2}.
struct TwoWordRecord {
  bool valid;
  std::uint64_t sets_checked;
  std::uint64_t counterexample;
  RepairOutcome count;
  RepairOutcome event;
};

inline constexpr std::array<std::uint64_t, 4> kRepairSeeds = {201, 202, 203, 204};

// In the test's loop order: algorithm, m, eps, tasks, seed.
inline const RepairRecord kRepairRecords[] = {
    {"ltf", 8, 1, 26, 201, 0x1p+0, 0x58f27095b6756bbcULL, false, 2, 0x2ULL, {true, 2, 2, false, 0xa04093f8d30d89a5ULL}, 0x3ULL, {true, 3, 3, false, 0x1896eb5005adecddULL}},
    {"ltf", 8, 1, 26, 202, 0x1p+0, 0x4493a5409368b4a9ULL, true, 8, 0x0ULL, {true, 0, 0, false, 0x4493a5409368b4a9ULL}, 0x21ULL, {true, 1, 1, false, 0xf6cbce56e903b976ULL}},
    {"ltf", 8, 1, 26, 203, 0x1p+0, 0x9cad01122e4ecdd9ULL, false, 2, 0x2ULL, {true, 5, 5, false, 0x0a94e343887978b8ULL}, 0x3ULL, {true, 4, 4, false, 0x988544f5c770608dULL}},
    {"ltf", 8, 1, 26, 204, 0x1p+0, 0xa56d53f4f873f0b9ULL, false, 3, 0x4ULL, {true, 1, 1, false, 0xdb170a6a7f3d9932ULL}, 0x11ULL, {true, 1, 1, false, 0x0d3c38ab91708645ULL}},
    {"ltf", 8, 1, 52, 201, 0x1p+0, 0x6812ae17604fb4e9ULL, false, 8, 0x80ULL, {true, 1, 1, false, 0x645612ffb5860865ULL}, 0x5ULL, {true, 1, 1, false, 0xff6a90ae77ddcd79ULL}},
    {"ltf", 8, 1, 52, 202, 0x1p+0, 0xb88d5224b685ade4ULL, true, 8, 0x0ULL, {true, 0, 0, false, 0xb88d5224b685ade4ULL}, 0x3ULL, {false, 0, 0, false, 0xb88d5224b685ade4ULL}},
    {"ltf", 8, 1, 52, 203, 0x1p+0, 0x33f9daade7564ff0ULL, true, 8, 0x0ULL, {true, 0, 0, false, 0x33f9daade7564ff0ULL}, 0x9ULL, {true, 3, 3, false, 0x91846df98c4bc71cULL}},
    {"ltf", 8, 1, 52, 204, 0x1p+0, 0x3860360613f97272ULL, false, 1, 0x1ULL, {true, 1, 1, false, 0x1b5031c209cca3bcULL}, 0x3ULL, {true, 1, 2, false, 0x66074926170dc77bULL}},
    {"ltf", 8, 2, 26, 201, 0x1p+0, 0x10f004be9e6812cbULL, false, 5, 0x21ULL, {true, 10, 10, false, 0x52bde017480663f4ULL}, 0x13ULL, {true, 2, 2, false, 0xd5714220a014a3e6ULL}},
    {"ltf", 8, 2, 26, 202, 0x1p+0, 0x0dd2ea24fb64b755ULL, true, 28, 0x0ULL, {true, 0, 0, false, 0x0dd2ea24fb64b755ULL}, 0x7ULL, {true, 1, 1, false, 0xc4287c563f1d56faULL}},
    {"ltf", 8, 2, 26, 203, 0x1p+0, 0xf851d06725ba310fULL, false, 8, 0x6ULL, {true, 1, 1, true, 0x1a09e5a38b86ee59ULL}, 0x7ULL, {true, 1, 1, true, 0x1a09e5a38b86ee59ULL}},
    {"ltf", 8, 2, 26, 204, 0x1p+0, 0x5b323758ae1d75f6ULL, false, 19, 0x18ULL, {true, 1, 1, false, 0xd2b1bf329713e75aULL}, 0x23ULL, {true, 1, 1, false, 0xff85a12619192ccaULL}},
    {"ltf", 8, 2, 52, 201, 0x1p+0, 0x3c37f784fc258ab8ULL, true, 28, 0x0ULL, {true, 0, 0, false, 0x3c37f784fc258ab8ULL}, 0x7ULL, {true, 1, 1, false, 0x40ab05f8d1d46461ULL}},
    {"ltf", 8, 2, 52, 202, 0x1p+0, 0xdf5f3017ae9223bbULL, false, 8, 0x6ULL, {true, 1, 1, false, 0x779e06408d0a1cabULL}, 0x62ULL, {true, 1, 1, false, 0x3457ae2662387146ULL}},
    {"ltf", 8, 2, 52, 203, 0x1.4cccccccccccdp+0, 0x5b8349c12efd81e8ULL, true, 28, 0x0ULL, {true, 0, 0, false, 0x5b8349c12efd81e8ULL}, 0x1aULL, {true, 1, 1, false, 0x247be74cfc313529ULL}},
    {"ltf", 8, 2, 52, 204, 0x1.4cccccccccccdp+0, 0xc8defa5bc605c961ULL, true, 28, 0x0ULL, {true, 0, 0, false, 0xc8defa5bc605c961ULL}, 0xbULL, {true, 2, 2, true, 0x502794f52dd43556ULL}},
    {"ltf", 8, 3, 26, 201, 0x1p+0, 0xd42f5696b02fa5f9ULL, true, 56, 0x0ULL, {true, 0, 0, false, 0xd42f5696b02fa5f9ULL}, 0x8bULL, {true, 1, 1, false, 0x4f6ea94d92762299ULL}},
    {"ltf", 8, 3, 26, 202, 0x1p+0, 0xed1d32037a8cd15aULL, true, 56, 0x0ULL, {true, 0, 0, false, 0xed1d32037a8cd15aULL}, 0x1dULL, {true, 1, 1, false, 0x409cf3f072ee5e5bULL}},
    {"ltf", 8, 3, 26, 203, 0x1p+0, 0x53e01e1da0b3daf3ULL, false, 26, 0x86ULL, {true, 3, 3, false, 0xdcda1c85f8bdcfbdULL}, 0x87ULL, {true, 1, 1, false, 0x349563e41ebff479ULL}},
    {"ltf", 8, 3, 26, 204, 0x1p+0, 0x862978568e90982bULL, true, 56, 0x0ULL, {true, 0, 0, false, 0x862978568e90982bULL}, 0x8bULL, {true, 1, 1, false, 0x1a6fb339e3a46e91ULL}},
    {"ltf", 8, 3, 52, 201, 0x1.4cccccccccccdp+0, 0xcee43b98d1f8a4a1ULL, true, 56, 0x0ULL, {true, 0, 0, false, 0xcee43b98d1f8a4a1ULL}, 0xa5ULL, {true, 1, 1, false, 0x111bf186060a054cULL}},
    {"ltf", 8, 3, 52, 202, 0x1.4cccccccccccdp+0, 0x579a5c2a614d88e4ULL, false, 34, 0x62ULL, {true, 1, 1, false, 0x37ed7af68fe14ac4ULL}, 0x74ULL, {true, 1, 1, false, 0x6203a649b83ee948ULL}},
    {"ltf", 8, 3, 52, 203, 0x1.4cccccccccccdp+0, 0x71386831f321622cULL, true, 56, 0x0ULL, {true, 0, 0, false, 0x71386831f321622cULL}, 0x78ULL, {true, 1, 1, false, 0xad0b6e594282cad8ULL}},
    {"ltf", 8, 3, 52, 204, 0x1.b333333333333p+0, 0x92cb6f8ecf765ff4ULL, false, 47, 0x38ULL, {true, 2, 2, false, 0xd6e7d63d49fed5a4ULL}, 0x27ULL, {true, 1, 1, false, 0xd16302f85ada6deeULL}},
    {"ltf", 16, 1, 26, 201, 0x1p+0, 0x8d8d046cd425f4c0ULL, true, 16, 0x0ULL, {true, 0, 0, false, 0x8d8d046cd425f4c0ULL}, 0x21ULL, {true, 5, 5, false, 0x0e3694838866b867ULL}},
    {"ltf", 16, 1, 26, 202, 0x1p+0, 0x07315dddea4279d9ULL, false, 1, 0x1ULL, {true, 10, 10, true, 0x77f44d1c6941f417ULL}, 0x3ULL, {true, 4, 5, false, 0x34e206cc5776a613ULL}},
    {"ltf", 16, 1, 26, 203, 0x1p+0, 0xc2d49f264246a03eULL, false, 1, 0x1ULL, {true, 11, 11, true, 0xe296d2872731198fULL}, 0x3ULL, {true, 3, 3, false, 0xd441fa6d369e9850ULL}},
    {"ltf", 16, 1, 26, 204, 0x1p+0, 0x7309f9601fc08600ULL, false, 1, 0x1ULL, {true, 10, 11, false, 0xbe8600725b5b3c9dULL}, 0x3ULL, {true, 2, 2, false, 0x40ba3f91488b4ae7ULL}},
    {"ltf", 16, 1, 52, 201, 0x1p+0, 0x30488cc45ee412e4ULL, false, 2, 0x2ULL, {true, 3, 3, false, 0x615d03d7215c6251ULL}, 0x3ULL, {true, 2, 4, true, 0x58520f61d5a7ba3cULL}},
    {"ltf", 16, 1, 52, 202, 0x1p+0, 0xb4684a92c59447f1ULL, true, 16, 0x0ULL, {true, 0, 0, false, 0xb4684a92c59447f1ULL}, 0x41ULL, {true, 1, 1, false, 0x39c496b1e892a2deULL}},
    {"ltf", 16, 1, 52, 203, 0x1p+0, 0x1887c464589bdd2fULL, false, 7, 0x40ULL, {true, 6, 8, false, 0xe2dbf275acad870dULL}, 0x3ULL, {true, 2, 2, false, 0xdaf94ee478767df9ULL}},
    {"ltf", 16, 1, 52, 204, 0x1p+0, 0x8c4134823d39d11dULL, false, 1, 0x1ULL, {true, 4, 4, false, 0x551c0836ec2aa0b1ULL}, 0x3ULL, {true, 1, 1, false, 0x10b3d3e75487e4cbULL}},
    {"ltf", 16, 2, 26, 201, 0x1p+0, 0x4eeed6601a91c607ULL, true, 120, 0x0ULL, {true, 0, 0, false, 0x4eeed6601a91c607ULL}, 0x13ULL, {true, 1, 1, false, 0x00dd8005b3a945e2ULL}},
    {"ltf", 16, 2, 26, 202, 0x1p+0, 0xcbe630d408aeccf0ULL, false, 1, 0x3ULL, {true, 28, 29, true, 0xfd4790ab79834445ULL}, 0x7ULL, {true, 2, 2, false, 0x9235776ba45a5de3ULL}},
    {"ltf", 16, 2, 26, 203, 0x1p+0, 0xef92718e5cbe2c9eULL, false, 3, 0x9ULL, {true, 14, 15, true, 0xb9999ff1254f369cULL}, 0xbULL, {true, 1, 1, false, 0xd24003fbba689f34ULL}},
    {"ltf", 16, 2, 26, 204, 0x1p+0, 0x32f342049078cb8aULL, false, 1, 0x3ULL, {true, 7, 7, true, 0x507789fcb0e7f26dULL}, 0x13ULL, {true, 1, 1, false, 0x19e7d2595765d349ULL}},
    {"ltf", 16, 2, 52, 201, 0x1.4cccccccccccdp+0, 0x1b462868d6b81b75ULL, false, 17, 0xaULL, {true, 4, 4, false, 0x42dd3c3d7b060629ULL}, 0xbULL, {true, 1, 1, false, 0xf3d51e83fa373416ULL}},
    {"ltf", 16, 2, 52, 202, 0x1p+0, 0xfb1dd03c55edd8beULL, true, 120, 0x0ULL, {true, 0, 0, false, 0xfb1dd03c55edd8beULL}, 0xbULL, {true, 1, 1, false, 0xf8f8bac9f4aee4c5ULL}},
    {"ltf", 16, 2, 52, 203, 0x1p+0, 0xac2f66c77e8c6db3ULL, false, 19, 0x22ULL, {true, 14, 15, true, 0x5683f68ada100bb6ULL}, 0x7ULL, {true, 1, 1, false, 0xaded8128eaf2c940ULL}},
    {"ltf", 16, 2, 52, 204, 0x1.4cccccccccccdp+0, 0x6d2c28ceab34619fULL, false, 10, 0x401ULL, {true, 1, 1, false, 0x7aafc39654bbba2cULL}, 0x403ULL, {true, 2, 2, false, 0xbdb301b66b82d81dULL}},
    {"ltf", 16, 3, 26, 201, 0x1.4cccccccccccdp+0, 0x2757d538f091382dULL, true, 560, 0x0ULL, {true, 0, 0, false, 0x2757d538f091382dULL}, 0x20bULL, {true, 1, 1, false, 0xea5eb233bc04a98dULL}},
    {"ltf", 16, 3, 26, 202, 0x1p+0, 0x2c8b34a82dbea88eULL, false, 8, 0x203ULL, {true, 9, 11, false, 0x38e2063aa0a0dce9ULL}, 0x2007ULL, {true, 1, 1, false, 0x420697ae8c39ea8dULL}},
    {"ltf", 16, 3, 26, 203, 0x1.4cccccccccccdp+0, 0xd01b773cf30a67f1ULL, false, 510, 0x8300ULL, {true, 2, 2, false, 0x4e622720406df430ULL}, 0x407ULL, {true, 3, 3, true, 0xb8175ad978b87449ULL}},
    {"ltf", 16, 3, 26, 204, 0x1.4cccccccccccdp+0, 0x7977893db83ba18dULL, false, 36, 0x1009ULL, {true, 8, 8, true, 0xb95863728a4c482fULL}, 0xc03ULL, {true, 2, 2, false, 0xc6a796ffc959038fULL}},
    {"ltf", 16, 3, 52, 201, 0x1.b333333333333p+0, 0x344acd1d555e8392ULL, false, 71, 0x281ULL, {true, 6, 8, false, 0x987cca6452df8ceaULL}, 0x4bULL, {true, 1, 1, false, 0x538cd9610bbe506bULL}},
    {"ltf", 16, 3, 52, 202, 0x1p+0, 0xaf76fb8b3b3b3c2fULL, true, 560, 0x0ULL, {true, 0, 0, false, 0xaf76fb8b3b3b3c2fULL}, 0x2bULL, {true, 1, 1, false, 0x738bb86a9922fbe3ULL}},
    {"ltf", 16, 3, 52, 203, 0x1.b333333333333p+0, 0xfd9d4d72cc0f7d6aULL, false, 152, 0xc2ULL, {true, 3, 3, false, 0x33cca711003989c9ULL}, 0xc3ULL, {true, 2, 3, false, 0x42534dcf46e47c00ULL}},
    {"ltf", 16, 3, 52, 204, 0x1.199999999999ap+1, 0xf9ab632f7789847fULL, false, 76, 0x4081ULL, {true, 3, 3, false, 0x045ae21302cf8128ULL}, 0x883ULL, {true, 2, 2, false, 0x52c27874966ab7abULL}},
    {"ltf", 32, 1, 26, 201, 0x1p+0, 0xc84320823a716345ULL, true, 32, 0x0ULL, {true, 0, 0, false, 0xc84320823a716345ULL}, 0x3ULL, {true, 2, 2, true, 0x4bc8b482bf209fbeULL}},
    {"ltf", 32, 1, 26, 202, 0x1.b333333333333p+0, 0x896cd321aab38aa7ULL, false, 2, 0x2ULL, {true, 7, 7, false, 0xda8368644bd6dd93ULL}, 0x3ULL, {true, 3, 3, true, 0xb409aad8757fe517ULL}},
    {"ltf", 32, 1, 26, 203, 0x1p+0, 0x3743a70fb231b415ULL, false, 1, 0x1ULL, {true, 14, 14, true, 0x9c28110c22c87740ULL}, 0x5ULL, {true, 4, 4, false, 0xe34133944ebc93fbULL}},
    {"ltf", 32, 1, 26, 204, 0x1p+0, 0xb665e58205fa1907ULL, false, 1, 0x1ULL, {true, 5, 5, false, 0x7cc724c79f098363ULL}, 0x3ULL, {true, 2, 2, false, 0x63aa62b308cfe399ULL}},
    {"ltf", 32, 1, 52, 201, 0x1.199999999999ap+1, 0xf090d472b6917a41ULL, false, 2, 0x2ULL, {true, 2, 2, false, 0xf11a37c04993d1d9ULL}, 0x3ULL, {true, 2, 2, false, 0xe9b9d511ec8c201fULL}},
    {"ltf", 32, 1, 52, 202, 0x1p+0, 0x15c229924db31f4cULL, false, 1, 0x1ULL, {true, 16, 19, false, 0x77e752ba17b1eea5ULL}, 0x5ULL, {true, 4, 6, false, 0xf679765981b30477ULL}},
    {"ltf", 32, 1, 52, 203, 0x1.4cccccccccccdp+0, 0x0436cbee1d01215aULL, false, 2, 0x2ULL, {true, 21, 29, true, 0xae553d44d0ab8390ULL}, 0x3ULL, {true, 2, 2, false, 0xf8c08551b8c0ea03ULL}},
    {"ltf", 32, 1, 52, 204, 0x1.4cccccccccccdp+0, 0x93e37d91def43182ULL, false, 1, 0x1ULL, {true, 9, 9, true, 0x24b6f215530e1e49ULL}, 0x3ULL, {true, 1, 1, false, 0xb71d609767dba187ULL}},
    {"ltf", 32, 2, 26, 201, 0x1p+0, 0x550ed082b8ba0ee6ULL, false, 1, 0x3ULL, {true, 5, 5, false, 0xcaaf35f5fa3d2cb1ULL}, 0x7ULL, {true, 1, 1, false, 0x92c75fb28e25eb2eULL}},
    {"ltf", 32, 2, 26, 202, 0x1.b333333333333p+0, 0x87886605fdc2dd4eULL, false, 1, 0x3ULL, {true, 18, 20, true, 0x8a0a41a0b4f68a8fULL}, 0x7ULL, {true, 1, 1, false, 0xb6ea0aa813d182e9ULL}},
    {"ltf", 32, 2, 26, 203, 0x1p+0, 0xae199afcbd4f522dULL, false, 1, 0x3ULL, {true, 49, 49, true, 0xd2ebbdf34653a810ULL}, 0x7ULL, {true, 4, 4, true, 0x29f4f9f10de67e0bULL}},
    {"ltf", 32, 2, 26, 204, 0x1p+0, 0xf54be1c95af1876cULL, false, 2, 0x5ULL, {true, 20, 21, true, 0xe2c8a43c3b2778b2ULL}, 0xbULL, {true, 1, 1, false, 0x141382d8a490ee15ULL}},
    {"ltf", 32, 2, 52, 201, 0x1.199999999999ap+1, 0x77761b503df79398ULL, false, 6, 0x41ULL, {true, 35, 41, true, 0x8d6822d394515e80ULL}, 0xbULL, {true, 3, 6, false, 0xe063f95b31cb0f2eULL}},
    {"ltf", 32, 2, 52, 202, 0x1p+0, 0xcc0181cc522d42eeULL, false, 66, 0x84ULL, {true, 3, 3, true, 0x74f67d761d3d920eULL}, 0xbULL, {true, 1, 1, false, 0xc55eb4c6e23f2106ULL}},
    {"ltf", 32, 2, 52, 203, 0x1p+0, 0x8b0f0830bfeba874ULL, false, 3, 0x9ULL, {true, 81, 94, true, 0x3b5bc7bea73bccd0ULL}, 0x7ULL, {true, 2, 2, false, 0x703dde8fee355f9eULL}},
    {"ltf", 32, 2, 52, 204, 0x1p+0, 0xb47ce5998da604a9ULL, false, 2, 0x5ULL, {true, 47, 58, true, 0x37373b03f7d30f3cULL}, 0x7ULL, {true, 2, 2, false, 0x9141be75ef13225fULL}},
    {"ltf", 32, 3, 26, 201, 0x1.b333333333333p+0, 0xc898b91ca050b314ULL, false, 38, 0x405ULL, {true, 14, 17, false, 0x23f44a3b451ae5f6ULL}, 0x407ULL, {true, 1, 1, false, 0x4979249259471893ULL}},
    {"ltf", 32, 3, 26, 202, 0x1.b333333333333p+0, 0x0ac5daaac267da2eULL, false, 2, 0xbULL, {true, 46, 51, true, 0xfd53feac519e0840ULL}, 0xfULL, {true, 1, 1, true, 0xae1748b25329b67cULL}},
    {"ltf", 32, 3, 26, 203, 0x1p+0, 0x81579b58ece51247ULL, false, 2, 0xbULL, {true, 84, 86, true, 0x2141c7b2976dbf86ULL}, 0xfULL, {true, 5, 5, true, 0x477fe81a43694b77ULL}},
    {"ltf", 32, 3, 26, 204, 0x1p+0, 0xa39b5b3c4b3d058aULL, false, 2, 0xbULL, {true, 43, 44, true, 0x171ce9166a9929c0ULL}, 0xfULL, {true, 1, 1, false, 0x2759b10de39ac3e3ULL}},
    {"ltf", 32, 3, 52, 201, 0x1.8p+1, 0x48a7bee0057bf087ULL, false, 14, 0x8003ULL, {true, 14, 20, false, 0xc6e61a43869bf801ULL}, 0x8007ULL, {true, 2, 3, false, 0x7b89fe17949d2d9aULL}},
    {"ltf", 32, 3, 52, 202, 0x1.4cccccccccccdp+0, 0x53f4ed4e8b68bbfbULL, false, 2409, 0xa40ULL, {true, 4, 5, true, 0x86a96eebd530f5cfULL}, 0x213ULL, {true, 1, 1, false, 0x550ab00f54e66d19ULL}},
    {"ltf", 32, 3, 52, 203, 0x1.4cccccccccccdp+0, 0x494268b02508c039ULL, false, 6, 0x83ULL, {true, 82, 101, true, 0x2d2ac95f6d0d8d61ULL}, 0x87ULL, {true, 2, 2, false, 0x158b09bdbe398283ULL}},
    {"ltf", 32, 3, 52, 204, 0x1.199999999999ap+1, 0x3dc2b798b09e2355ULL, false, 1, 0x7ULL, {true, 26, 26, false, 0xd77c050a6f2b48a3ULL}, 0xfULL, {true, 1, 1, false, 0x4d658cf6fea04fedULL}},
    {"rltf", 8, 1, 26, 201, 0x1p+0, 0x17ea63157be6d904ULL, false, 1, 0x1ULL, {true, 24, 27, false, 0x7a11c9783b820101ULL}, 0x3ULL, {true, 5, 6, false, 0x730e1d7db7aeda5aULL}},
    {"rltf", 8, 1, 26, 202, 0x1p+0, 0x3c4fdd7fa852d85cULL, false, 1, 0x1ULL, {true, 34, 39, false, 0x8c8272b6f055d561ULL}, 0x3ULL, {true, 9, 9, false, 0xb7e6f575e184f146ULL}},
    {"rltf", 8, 1, 26, 203, 0x1p+0, 0xe53b4752de810733ULL, false, 1, 0x1ULL, {true, 29, 39, false, 0xd650463bc2e86726ULL}, 0x11ULL, {true, 7, 8, false, 0xf8734556825e3b12ULL}},
    {"rltf", 8, 1, 26, 204, 0x1p+0, 0x579287a7478fac37ULL, false, 1, 0x1ULL, {true, 26, 30, false, 0x02711f0a5f55d116ULL}, 0x3ULL, {true, 9, 11, false, 0x50aa5d90f3c3e375ULL}},
    {"rltf", 8, 1, 52, 201, 0x1p+0, 0x61856f50131bffd4ULL, false, 1, 0x1ULL, {true, 82, 157, false, 0x0312b78f916bfe3dULL}, 0x5ULL, {true, 12, 30, false, 0x7aeb650933c9926aULL}},
    {"rltf", 8, 1, 52, 202, 0x1p+0, 0x1372e26f7e272330ULL, false, 1, 0x1ULL, {true, 76, 126, false, 0xfb1193627d1942d1ULL}, 0x11ULL, {true, 27, 49, false, 0xda9bdb904630abd5ULL}},
    {"rltf", 8, 1, 52, 203, 0x1p+0, 0x86d3b88d4cc820c5ULL, false, 1, 0x1ULL, {true, 82, 123, false, 0x5944ff278fd9860eULL}, 0x81ULL, {true, 28, 39, false, 0x6e569b3940d97b3bULL}},
    {"rltf", 8, 1, 52, 204, 0x1p+0, 0x4547cf0b65b32fe2ULL, false, 1, 0x1ULL, {true, 73, 125, false, 0xfc83142850b7a817ULL}, 0x3ULL, {true, 21, 32, false, 0x3e35c74b4bfed64dULL}},
    {"rltf", 8, 2, 26, 201, 0x1p+0, 0xf1016735db0e4e4eULL, false, 1, 0x3ULL, {true, 72, 97, false, 0xaae010d227db529cULL}, 0x7ULL, {true, 6, 10, false, 0x5b514546b2813009ULL}},
    {"rltf", 8, 2, 26, 202, 0x1p+0, 0x3c95aa9ae31aeddeULL, false, 1, 0x3ULL, {true, 89, 106, false, 0x3e635208d17c56f9ULL}, 0x7ULL, {true, 10, 16, false, 0xd749713602449c12ULL}},
    {"rltf", 8, 2, 26, 203, 0x1p+0, 0x0bd4018db4b72374ULL, false, 1, 0x3ULL, {true, 67, 92, false, 0xa395dc11ab88fb43ULL}, 0x7ULL, {true, 13, 16, false, 0x9a8fbcb95e533e4bULL}},
    {"rltf", 8, 2, 26, 204, 0x1p+0, 0x11bc0686c0660944ULL, false, 1, 0x3ULL, {true, 95, 122, false, 0x4190c3d8292e20a8ULL}, 0x7ULL, {true, 11, 18, false, 0xfa2d9d71e1822c5dULL}},
    {"rltf", 8, 2, 52, 201, 0x1p+0, 0xd4c926fe1f1aa69dULL, false, 1, 0x3ULL, {true, 364, 620, false, 0x1cc4b8d855b750b7ULL}, 0x7ULL, {true, 32, 75, false, 0x3ed759cd0ea0ff14ULL}},
    {"rltf", 8, 2, 52, 202, 0x1p+0, 0x86a44e5e787d81fcULL, false, 1, 0x3ULL, {true, 340, 538, false, 0xf779a07a5cfdf58eULL}, 0x23ULL, {true, 28, 63, false, 0xea066efcce4f124aULL}},
    {"rltf", 8, 2, 52, 203, 0x1p+0, 0x2ad5c0c075e63e3dULL, false, 1, 0x3ULL, {true, 325, 459, false, 0x3db14c35a04122f3ULL}, 0x7ULL, {true, 31, 50, false, 0x32937d8252c22db4ULL}},
    {"rltf", 8, 2, 52, 204, 0x1p+0, 0xcc1918847850735bULL, false, 1, 0x3ULL, {true, 353, 583, false, 0xd8a8a8906b54e38eULL}, 0x7ULL, {true, 31, 77, false, 0x75c0121d9e069135ULL}},
    {"rltf", 8, 3, 26, 201, 0x1p+0, 0x324895ae0ae0a1c0ULL, false, 1, 0x7ULL, {true, 135, 175, false, 0xae966cdd3c218042ULL}, 0xfULL, {true, 11, 16, false, 0xdf596b69f8c0a62cULL}},
    {"rltf", 8, 3, 26, 202, 0x1p+0, 0xd2fc8bbc94af0daaULL, false, 1, 0x7ULL, {true, 195, 235, false, 0xf8cdea45c218be21ULL}, 0xfULL, {true, 11, 16, false, 0x781aa69d59825b90ULL}},
    {"rltf", 8, 3, 26, 203, 0x1p+0, 0x1339fd076ab526aeULL, false, 1, 0x7ULL, {true, 166, 214, false, 0x14236b84ccd11b65ULL}, 0xfULL, {true, 10, 16, false, 0x0acae85230cd1ce0ULL}},
    {"rltf", 8, 3, 26, 204, 0x1p+0, 0x9ea47df9d82f9e7aULL, false, 1, 0x7ULL, {true, 157, 189, false, 0x7e218e07afc26a87ULL}, 0xfULL, {true, 11, 18, false, 0xacb69e728be3b776ULL}},
    {"rltf", 8, 3, 52, 201, 0x1p+0, 0xe21f1d7a4ad2834dULL, false, 1, 0x7ULL, {true, 731, 1242, false, 0x319216ce46a80bc0ULL}, 0xfULL, {true, 36, 117, false, 0x4844dbd7a1f9ad44ULL}},
    {"rltf", 8, 3, 52, 202, 0x1p+0, 0x8b0533ccae36e4a4ULL, false, 1, 0x7ULL, {true, 674, 1044, false, 0x21ae2f2256827aacULL}, 0x17ULL, {true, 34, 91, false, 0x068b9ab1927780eaULL}},
    {"rltf", 8, 3, 52, 203, 0x1p+0, 0x8a15e0b33b144a4dULL, false, 1, 0x7ULL, {true, 599, 834, false, 0x1c0ea8a16512a057ULL}, 0x47ULL, {true, 38, 70, false, 0x025b338572750e77ULL}},
    {"rltf", 8, 3, 52, 204, 0x1p+0, 0x56323988f556c6b5ULL, false, 1, 0x7ULL, {true, 638, 1007, false, 0xd331a3a4456e0390ULL}, 0x27ULL, {true, 34, 91, false, 0xabc8d854f5981240ULL}},
    {"rltf", 16, 1, 26, 201, 0x1p+0, 0x923f188a66d93301ULL, false, 1, 0x1ULL, {true, 29, 33, false, 0x127e780a972f5820ULL}, 0x3ULL, {true, 3, 3, false, 0xf901707be7fddc87ULL}},
    {"rltf", 16, 1, 26, 202, 0x1p+0, 0x17c7af3fcfa5cfb5ULL, false, 1, 0x1ULL, {true, 22, 25, false, 0x065f0c377a07e095ULL}, 0x3ULL, {true, 9, 11, false, 0x357f7946c1f36e14ULL}},
    {"rltf", 16, 1, 26, 203, 0x1p+0, 0x76663b3539738915ULL, false, 1, 0x1ULL, {true, 23, 28, false, 0x31903397846d6327ULL}, 0x3ULL, {true, 8, 12, false, 0xc943389073444145ULL}},
    {"rltf", 16, 1, 26, 204, 0x1p+0, 0xabe0f0972628741bULL, false, 1, 0x1ULL, {true, 34, 37, false, 0x3364d54c6fa76c5eULL}, 0x5ULL, {true, 9, 13, false, 0x533c97345c39a158ULL}},
    {"rltf", 16, 1, 52, 201, 0x1p+0, 0x5dbb01b87fbd0e2aULL, false, 2, 0x2ULL, {true, 76, 131, false, 0x58237b9988e6a00eULL}, 0x3ULL, {true, 10, 18, false, 0x8b354d5e39827c59ULL}},
    {"rltf", 16, 1, 52, 202, 0x1p+0, 0x674107e398150970ULL, false, 2, 0x2ULL, {true, 50, 73, false, 0x613ddb9c09aecee9ULL}, 0x3ULL, {true, 10, 17, false, 0x24774cfba983ab07ULL}},
    {"rltf", 16, 1, 52, 203, 0x1p+0, 0x9ded3f023183f52dULL, false, 1, 0x1ULL, {true, 84, 111, false, 0xec0582849e8de00cULL}, 0x3ULL, {true, 30, 41, false, 0x7e83e4c1db5731b1ULL}},
    {"rltf", 16, 1, 52, 204, 0x1p+0, 0xcd63440e0859cfa8ULL, false, 1, 0x1ULL, {true, 87, 123, false, 0xbe12069d7477670fULL}, 0x5ULL, {true, 18, 27, false, 0x09500be7573301c8ULL}},
    {"rltf", 16, 2, 26, 201, 0x1p+0, 0x9de7943b399db695ULL, false, 1, 0x3ULL, {true, 86, 104, false, 0x2dea47ae117a524cULL}, 0x7ULL, {true, 6, 10, false, 0x1486319d872e69a6ULL}},
    {"rltf", 16, 2, 26, 202, 0x1p+0, 0xd6ed5a50e4db519fULL, false, 1, 0x3ULL, {true, 83, 102, false, 0x6d8289a149068ad5ULL}, 0x7ULL, {true, 10, 16, false, 0xa418f796bd6525ebULL}},
    {"rltf", 16, 2, 26, 203, 0x1p+0, 0x09bd5640d392410dULL, false, 1, 0x3ULL, {true, 69, 89, false, 0xf9ef8298b907b319ULL}, 0x7ULL, {true, 8, 13, false, 0xd4112f1b0b105deeULL}},
    {"rltf", 16, 2, 26, 204, 0x1p+0, 0xe48f6ce0bc92b752ULL, false, 1, 0x3ULL, {true, 94, 110, false, 0xd3da87976d9c319aULL}, 0x7ULL, {true, 4, 5, false, 0x0eb7ac1fe45dfe96ULL}},
    {"rltf", 16, 2, 52, 201, 0x1p+0, 0x4687b46945fae012ULL, false, 1, 0x3ULL, {true, 368, 535, false, 0x29c0bb63b61a0811ULL}, 0x7ULL, {true, 8, 24, false, 0x0132819dc63c2ae7ULL}},
    {"rltf", 16, 2, 52, 202, 0x1p+0, 0x1850aecbdc9f3029ULL, false, 1, 0x3ULL, {true, 262, 374, false, 0x7156678c74d883a5ULL}, 0x7ULL, {true, 15, 32, false, 0xb5933ecb8ad29309ULL}},
    {"rltf", 16, 2, 52, 203, 0x1p+0, 0x6d37f9ceb919bab2ULL, false, 1, 0x3ULL, {true, 254, 342, false, 0x757fff9ea9e9e6f2ULL}, 0x7ULL, {true, 14, 21, false, 0xda67d60b5355e480ULL}},
    {"rltf", 16, 2, 52, 204, 0x1p+0, 0x7f053d0b51433b5dULL, false, 1, 0x3ULL, {true, 379, 544, false, 0xa7d64f8ea6ba34d6ULL}, 0x7ULL, {true, 6, 12, false, 0x0e39dfbf1abd320fULL}},
    {"rltf", 16, 3, 26, 201, 0x1p+0, 0x5587dcab1dff4323ULL, false, 2, 0xbULL, {true, 178, 192, false, 0x01b6bd36b28ed3aeULL}, 0xfULL, {true, 2, 2, false, 0xa075395cf20704daULL}},
    {"rltf", 16, 3, 26, 202, 0x1p+0, 0xd0bc8936af907211ULL, false, 1, 0x7ULL, {true, 189, 223, false, 0x19600615fa6fbd99ULL}, 0xfULL, {true, 6, 11, false, 0xd07d81dae2ff212eULL}},
    {"rltf", 16, 3, 26, 203, 0x1p+0, 0x2c9d88cdce88c8a6ULL, false, 1, 0x7ULL, {true, 186, 218, false, 0xc5ea76eff9d3c494ULL}, 0xfULL, {true, 4, 5, false, 0x200e5a188bea0376ULL}},
    {"rltf", 16, 3, 26, 204, 0x1p+0, 0x19504d668a91b43dULL, false, 1, 0x7ULL, {true, 217, 234, false, 0x92036101473bbfcaULL}, 0xfULL, {true, 11, 17, false, 0x8673135a8a08e16fULL}},
    {"rltf", 16, 3, 52, 201, 0x1p+0, 0x99625e81382330caULL, false, 1, 0x7ULL, {true, 756, 1137, false, 0xc4e1afdf89224f0cULL}, 0xfULL, {true, 14, 34, false, 0x5fa2a59583a725bdULL}},
    {"rltf", 16, 3, 52, 202, 0x1p+0, 0x5cfd58e317827b60ULL, false, 1, 0x7ULL, {true, 702, 922, false, 0x1db41d5bd29fde57ULL}, 0xfULL, {true, 18, 40, false, 0x8fc724b57b0a0cdeULL}},
    {"rltf", 16, 3, 52, 203, 0x1p+0, 0x4d8ae15d3ec527a9ULL, false, 1, 0x7ULL, {true, 649, 814, false, 0x4aef8d4661809f6eULL}, 0xfULL, {true, 19, 29, false, 0xcd55c261a111dd24ULL}},
    {"rltf", 16, 3, 52, 204, 0x1p+0, 0xc031e288c3c1e307ULL, false, 1, 0x7ULL, {true, 729, 1009, false, 0x39b7c3df800087efULL}, 0xfULL, {true, 13, 29, false, 0x4dc32de26b0fcdbdULL}},
    {"rltf", 32, 1, 26, 201, 0x1p+0, 0xb61c1287745cceccULL, false, 1, 0x1ULL, {true, 21, 27, true, 0x588dab00a4645899ULL}, 0x3ULL, {true, 5, 6, false, 0x8a3f2f8e9a647918ULL}},
    {"rltf", 32, 1, 26, 202, 0x1p+0, 0x67bd58a79dc9d392ULL, false, 1, 0x1ULL, {true, 28, 31, true, 0x32e4d568d62de260ULL}, 0x9ULL, {true, 8, 9, true, 0x3ce14ead97281c52ULL}},
    {"rltf", 32, 1, 26, 203, 0x1p+0, 0xe5b3269be17bd695ULL, false, 1, 0x1ULL, {true, 19, 20, false, 0x4f9c252a0f341424ULL}, 0x3ULL, {true, 5, 6, false, 0xa788f5c6b014a207ULL}},
    {"rltf", 32, 1, 26, 204, 0x1p+0, 0xc7e17abedb890d10ULL, false, 2, 0x2ULL, {true, 34, 36, true, 0xafe0362b963f7b04ULL}, 0x3ULL, {true, 6, 6, false, 0xd354fe4303ea65b6ULL}},
    {"rltf", 32, 1, 52, 201, 0x1p+0, 0x65186a7b207780dcULL, false, 2, 0x2ULL, {true, 96, 129, false, 0x8e08644f69cbffc0ULL}, 0x3ULL, {true, 14, 22, false, 0xb0b461a24fd5c6aaULL}},
    {"rltf", 32, 1, 52, 202, 0x1p+0, 0x08cd738f2a5ba87cULL, false, 1, 0x1ULL, {true, 48, 74, false, 0xce54a17c771d4a57ULL}, 0x3ULL, {true, 10, 14, false, 0x019375dab79c87d4ULL}},
    {"rltf", 32, 1, 52, 203, 0x1p+0, 0xebdb8cd6db5a6f61ULL, false, 2, 0x2ULL, {true, 54, 74, false, 0xe47d9edf85292f29ULL}, 0x3ULL, {true, 17, 24, false, 0x3e0a1ed3715d497dULL}},
    {"rltf", 32, 1, 52, 204, 0x1p+0, 0xd74eb39959da3aabULL, false, 1, 0x1ULL, {true, 54, 91, false, 0x0fb590caf1c027a2ULL}, 0x3ULL, {true, 10, 23, false, 0x2b07bc4c41382061ULL}},
    {"rltf", 32, 2, 26, 201, 0x1p+0, 0x946773c934e912abULL, false, 2, 0x5ULL, {true, 84, 96, true, 0x97c651d64148b25eULL}, 0x7ULL, {true, 2, 2, false, 0xacb026885232738cULL}},
    {"rltf", 32, 2, 26, 202, 0x1p+0, 0xb662e6ea3bb7b0c3ULL, false, 1, 0x3ULL, {true, 100, 113, true, 0xa92d1b47aebd9dd5ULL}, 0x7ULL, {true, 13, 16, false, 0x8cda4231fed390f6ULL}},
    {"rltf", 32, 2, 26, 203, 0x1p+0, 0x8528b222b8e4f87cULL, false, 1, 0x3ULL, {true, 72, 94, true, 0x5f0e289070610462ULL}, 0x7ULL, {true, 4, 8, false, 0x1da397438cea99a9ULL}},
    {"rltf", 32, 2, 26, 204, 0x1p+0, 0x4ada5ce5ac2af828ULL, false, 1, 0x3ULL, {true, 100, 105, true, 0xdfce658185c38b5dULL}, 0x7ULL, {true, 3, 3, false, 0x81ee2968174cb272ULL}},
    {"rltf", 32, 2, 52, 201, 0x1p+0, 0xb796218d8511c07bULL, false, 1, 0x3ULL, {true, 353, 501, false, 0xfd24ad1fd218344fULL}, 0x7ULL, {true, 6, 12, false, 0x79adb8fd17d37795ULL}},
    {"rltf", 32, 2, 52, 202, 0x1p+0, 0x94449b44a44c8ef1ULL, false, 1, 0x3ULL, {true, 192, 279, true, 0x60c3388011a19dacULL}, 0x7ULL, {true, 15, 26, false, 0xbac5131ef9de6c3aULL}},
    {"rltf", 32, 2, 52, 203, 0x1p+0, 0x49874c95b9c2f9ccULL, false, 3, 0x9ULL, {true, 292, 352, true, 0x253f8222cb600fcbULL}, 0xbULL, {true, 3, 5, false, 0x5a0d27218921578fULL}},
    {"rltf", 32, 2, 52, 204, 0x1p+0, 0xd5616dcf922f11caULL, false, 1, 0x3ULL, {true, 344, 479, true, 0x7584b7628017dcaeULL}, 0x7ULL, {true, 15, 33, false, 0xbc36d876815080c5ULL}},
    {"rltf", 32, 3, 26, 201, 0x1p+0, 0x9379ae66007940afULL, false, 1, 0x7ULL, {true, 177, 204, true, 0xd7aaa2fbecb20f8dULL}, 0xfULL, {true, 10, 14, false, 0xd7ee7aa056a6800fULL}},
    {"rltf", 32, 3, 26, 202, 0x1p+0, 0xcb681b594b439b6bULL, false, 1, 0x7ULL, {true, 179, 202, false, 0x99808cfb6c48714bULL}, 0xfULL, {true, 5, 8, false, 0x59f216924181ec72ULL}},
    {"rltf", 32, 3, 26, 203, 0x1p+0, 0x44af071040bf79c9ULL, false, 1, 0x7ULL, {true, 170, 203, true, 0xa2cba3276d3c0879ULL}, 0xfULL, {true, 7, 11, false, 0xf5259bf213c36a2eULL}},
    {"rltf", 32, 3, 26, 204, 0x1p+0, 0x46473d38d0a29651ULL, false, 1, 0x7ULL, {true, 216, 234, true, 0x6561081737f936f9ULL}, 0xfULL, {true, 9, 12, false, 0x730c2197ed0b3d3dULL}},
    {"rltf", 32, 3, 52, 201, 0x1p+0, 0xe7f69ae5b79ac499ULL, false, 1, 0x7ULL, {true, 853, 1063, false, 0xcc3be43a5bf31676ULL}, 0xfULL, {true, 5, 10, false, 0x20daee7a534a6bddULL}},
    {"rltf", 32, 3, 52, 202, 0x1p+0, 0xbb085b4f7c907f67ULL, false, 1, 0x7ULL, {true, 705, 908, true, 0x324a39060926272bULL}, 0xfULL, {true, 10, 21, false, 0x53261cb3bf5a710eULL}},
    {"rltf", 32, 3, 52, 203, 0x1p+0, 0x59c3c5a5294cbb7eULL, false, 1, 0x7ULL, {true, 571, 677, true, 0x6db70a340a3d17c5ULL}, 0xfULL, {true, 22, 33, false, 0xfc161b382a32ab07ULL}},
    {"rltf", 32, 3, 52, 204, 0x1p+0, 0xaaa1691c305437fcULL, false, 1, 0x7ULL, {true, 637, 812, false, 0x64fcb167657fccb0ULL}, 0xfULL, {true, 12, 28, false, 0x0a848b46d1882f88ULL}},
};

inline const TwoWordRecord kTwoWord = {
    false, 1, 0x1ULL, {true, 3, 3, false, 0xab9d415e5e18163bULL},
    {true, 3, 3, false, 0x31f9e66b95b9fffbULL}};

}  // namespace streamsched::golden
