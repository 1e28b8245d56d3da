// Frozen HEFT and StagePack admissions for
// tests/test_list_schedulers_golden.cpp.
//
// Captured at commit 8c870a5, before the candidate-loop rewrite of
// BuildState, by running exactly the admissions the test builds. HEFT and
// StagePack share BuildState's evaluate/commit with LTF and R-LTF, whose
// results tests/golden/cold_path.hpp pins; these values pin theirs. Never
// regenerate them: every later change to the shared machinery must
// reproduce them bit for bit. Factors are hex-float literals, so
// comparisons are exact.
#pragma once

#include <array>
#include <cstdint>

namespace streamsched::golden {

/// One admission: the escalation factor served (0 when every rung failed)
/// and the fingerprint of the served, count-repaired schedule (0 when
/// none was served).
struct ListAdmission {
  double factor;
  std::uint64_t fingerprint;
};

/// A request shape: tasks per DAG and the count model it asks for.
struct ListShape {
  std::size_t tasks;
  const char* model;
};

inline constexpr std::array<const char*, 2> kListVariants = {"heft", "stage_pack"};

// The service's cold `count:eps=2` shape, then a 26-task eps = 1 one.
inline constexpr std::array<ListShape, 2> kListShapes = {
    ListShape{52, "count:eps=2"}, ListShape{26, "count:eps=1"}};

inline constexpr std::array<std::uint64_t, 8> kListSeeds = {201, 202, 203, 204,
                                                             205, 206, 207, 208};

// [variant][shape][seed], in kListVariants x kListShapes x kListSeeds order.
inline const ListAdmission kListAdmissions[2][2][8] = {
    {
        // heft, count:eps=2
        {
            {0x1.4cccccccccccdp+0, 0x0694f61cb8750961ULL},
            {0x1.4cccccccccccdp+0, 0x9debdda32dac2777ULL},
            {0x1.b333333333333p+0, 0x9d7800e349ee4d21ULL},
            {0x1.b333333333333p+0, 0x6e2a0fdbbdd164faULL},
            {0x1.b333333333333p+0, 0xa180010bcb7a47f5ULL},
            {0x1.b333333333333p+0, 0x3591470d71e4bb93ULL},
            {0x1.b333333333333p+0, 0x4b6c4b8d88f370fdULL},
            {0x1.4cccccccccccdp+0, 0x7eae92ba02b42780ULL},
        },
        // heft, count:eps=1
        {
            {0x1p+0, 0x962d15f48b95cbd2ULL},
            {0x1.b333333333333p+0, 0x4f565e03054528a2ULL},
            {0x1.4cccccccccccdp+0, 0x26f589e7a6bd2e18ULL},
            {0x1p+0, 0x38afbca860f9daccULL},
            {0x1p+0, 0xd30be10672c85851ULL},
            {0x1.4cccccccccccdp+0, 0x2d28dbde95ff5b34ULL},
            {0x1p+0, 0x55334a83d639aad6ULL},
            {0x1.4cccccccccccdp+0, 0xc8d6fcfbeaa4be78ULL},
        },
    },
    {
        // stage_pack, count:eps=2
        {
            {0x1p+0, 0x05c1c16ea6b1e150ULL},
            {0x1p+0, 0xcc479e36d4e687d6ULL},
            {0x1p+0, 0x7fb402c9c48f840cULL},
            {0x1p+0, 0x29e6e30c27e8dd06ULL},
            {0x1p+0, 0x2f439525f4d86e3fULL},
            {0x1p+0, 0x6ede9c81a09b88deULL},
            {0x1p+0, 0x16a0183277928882ULL},
            {0x1p+0, 0xadb0cff041d8fc9cULL},
        },
        // stage_pack, count:eps=1
        {
            {0x1p+0, 0x7b997a2cd3df919cULL},
            {0x1p+0, 0x92a44b9fb799ce14ULL},
            {0x1p+0, 0xc9b4b0d67b50ac43ULL},
            {0x1p+0, 0xb0e050e390150d8fULL},
            {0x1p+0, 0x67088f11b0149ac0ULL},
            {0x1p+0, 0x7c81516ac1234437ULL},
            {0x1p+0, 0xd55a166d989229b2ULL},
            {0x1p+0, 0x72cf9111e59e01beULL},
        },
    },
};

}  // namespace streamsched::golden
