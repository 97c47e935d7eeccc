//===- tests/dfs_golden_test.cpp - Pinned Algorithm 2 DFS counters --------===//
///
/// Pins, per run, the verdict, round count, proof size and every counter
/// the proof-check DFS and the refinement loop produce: states visited,
/// sleep/persistent pruning, useless-cache hits, Hoare and semantic
/// commutativity queries, SMT queries and interning misses. The runs cover
/// every tier-1 instance (bluetooth(2..4) and its bug variants included) under
/// `seq` and `rand(1)`, every third instance (from the third on) under
/// `lockstep`, and a few correct instances with proof minimization on.
///
/// The DFS's data structures are pure bookkeeping: a change to how a node
/// is stored, probed or cached must leave every number here unchanged. A
/// mismatch prints the run's actual row in table form.
///
//===----------------------------------------------------------------------===//

#include "core/Portfolio.h"
#include "core/Verifier.h"
#include "program/CfgBuilder.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace seqver;
using namespace seqver::core;

namespace {

/// The pinned counters, in table order.
const char *const CounterNames[] = {
    "visited_total", "peak_visited",  "sleep_pruned",
    "persistent_pruned", "useless_cache_hits", "hoare_queries",
    "commut_semantic", "smt_queries", "intern_misses",
};
constexpr size_t NumCounters = sizeof(CounterNames) / sizeof(*CounterNames);

struct GoldenRow {
  const char *Instance;
  const char *Order;
  bool Minimize;
  const char *Verdict;
  int Rounds;
  size_t ProofSize;
  size_t MinimizedProofSize;
  int64_t Counters[NumCounters];
};

// clang-format off
const GoldenRow Golden[] = {
    {"counter_safe_2x1", "seq", false, "correct", 2, 7, 0, {11, 11, 5, 0, 1, 75, 4, 1, 21}},
    {"counter_bug_2x1", "seq", false, "incorrect", 1, 1, 0, {0, 4, 0, 0, 0, 5, 4, 1, 13}},
    {"counter_safe_2x2", "seq", false, "correct", 2, 11, 0, {26, 26, 16, 0, 1, 216, 8, 1, 43}},
    {"counter_bug_2x2", "seq", false, "incorrect", 1, 1, 0, {0, 6, 0, 0, 0, 7, 8, 1, 21}},
    {"counter_safe_3x1", "seq", false, "correct", 2, 9, 0, {23, 23, 17, 0, 1, 141, 6, 1, 38}},
    {"counter_bug_3x1", "seq", false, "incorrect", 1, 1, 0, {0, 5, 0, 0, 0, 6, 6, 1, 20}},
    {"counter_safe_3x2", "seq", false, "correct", 2, 15, 0, {80, 80, 82, 0, 1, 504, 12, 1, 117}},
    {"counter_bug_3x2", "seq", false, "incorrect", 1, 1, 0, {0, 8, 0, 0, 0, 9, 12, 1, 35}},
    {"counter_safe_4x1", "seq", false, "correct", 2, 11, 0, {47, 47, 49, 0, 1, 238, 8, 1, 71}},
    {"counter_bug_4x1", "seq", false, "incorrect", 1, 1, 0, {0, 6, 0, 0, 0, 7, 8, 1, 29}},
    {"counter_safe_4x2", "seq", false, "correct", 2, 19, 0, {242, 242, 352, 0, 1, 980, 16, 1, 335}},
    {"counter_bug_4x2", "seq", false, "incorrect", 1, 1, 0, {0, 10, 0, 0, 0, 11, 16, 1, 53}},
    {"mutex_safe_2", "seq", false, "correct", 2, 8, 0, {14, 14, 3, 4, 3, 107, 5, 1, 30}},
    {"mutex_bug_2", "seq", false, "incorrect", 2, 8, 0, {0, 14, 2, 6, 4, 133, 13, 2, 38}},
    {"mutex_safe_3", "seq", false, "correct", 2, 8, 0, {41, 41, 31, 23, 15, 167, 16, 1, 90}},
    {"mutex_bug_3", "seq", false, "incorrect", 2, 8, 0, {0, 73, 34, 29, 32, 162, 29, 2, 103}},
    {"mutex_safe_4", "seq", false, "correct", 2, 8, 0, {112, 228, 282, 131, 95, 219, 30, 1, 335}},
    {"mutex_bug_4", "seq", false, "incorrect", 2, 8, 0, {0, 580, 566, 214, 423, 191, 51, 2, 459}},
    {"prodcons_safe", "seq", false, "correct", 2, 3, 0, {26, 26, 29, 3, 5, 36, 6, 1, 39}},
    {"prodcons_bug", "seq", false, "incorrect", 1, 1, 0, {0, 8, 3, 0, 0, 9, 4, 1, 23}},
    {"bank_safe", "seq", false, "correct", 2, 3, 0, {28, 28, 30, 0, 7, 36, 0, 1, 39}},
    {"bank_bug", "seq", false, "incorrect", 2, 5, 0, {0, 10, 12, 0, 1, 70, 8, 2, 27}},
    {"ticket_safe_2", "seq", false, "correct", 3, 21, 0, {20, 20, 11, 6, 5, 650, 12, 2, 58}},
    {"ticket_bug_2", "seq", false, "incorrect", 3, 22, 0, {0, 21, 18, 8, 7, 697, 16, 2, 59}},
    {"ticket_safe_3", "seq", false, "correct", 6, 47, 0, {38, 64, 140, 42, 48, 6516, 72, 3, 266}},
    {"ticket_bug_3", "seq", false, "incorrect", 4, 31, 0, {0, 91, 123, 38, 43, 2463, 43, 3, 191}},
    {"bluetooth_bug_1", "seq", false, "incorrect", 3, 20, 0, {0, 39, 19, 21, 6, 1130, 24, 1, 57}},
    {"bluetooth_bug_2", "seq", false, "incorrect", 3, 26, 0, {0, 92, 158, 67, 26, 2538, 71, 3, 166}},
    {"bluetooth_bug_3", "seq", false, "incorrect", 3, 35, 0, {0, 886, 1815, 848, 444, 5488, 247, 3, 712}},
    {"bluetooth_bug_4", "seq", false, "incorrect", 3, 44, 0, {0, 6258, 16292, 6967, 4619, 8500, 538, 3, 3269}},
    {"peterson_safe", "seq", false, "correct", 3, 22, 0, {36, 36, 18, 9, 10, 917, 21, 2, 75}},
    {"peterson_bug", "seq", false, "incorrect", 3, 20, 0, {0, 16, 9, 8, 6, 603, 15, 3, 51}},
    {"rw_safe_2", "seq", false, "correct", 2, 11, 0, {31, 31, 12, 2, 4, 163, 17, 1, 46}},
    {"rw_bug_2", "seq", false, "incorrect", 2, 11, 0, {0, 13, 1, 0, 2, 164, 19, 2, 32}},
    {"rw_safe_3", "seq", false, "correct", 3, 21, 0, {50, 50, 55, 10, 11, 771, 46, 2, 126}},
    {"rw_bug_3", "seq", false, "incorrect", 2, 11, 0, {0, 15, 1, 0, 2, 199, 27, 2, 45}},
    {"counter_safe_5x2", "seq", false, "correct", 2, 23, 0, {728, 728, 1378, 0, 1, 1692, 20, 1, 985}},
    {"counter_bug_5x2", "seq", false, "incorrect", 1, 1, 0, {0, 12, 0, 0, 0, 13, 20, 1, 75}},
    {"mutex_safe_5", "seq", false, "correct", 2, 8, 0, {294, 1454, 2422, 830, 790, 271, 48, 1, 1423}},
    {"mutex_bug_5", "seq", false, "incorrect", 2, 8, 0, {0, 4715, 6821, 1842, 5072, 220, 79, 2, 2625}},
    {"bluetooth_1", "seq", false, "correct", 3, 18, 0, {20, 41, 28, 20, 16, 997, 22, 1, 56}},
    {"bluetooth_2", "seq", false, "correct", 3, 24, 0, {73, 122, 199, 62, 44, 2138, 67, 2, 135}},
    {"bluetooth_3", "seq", false, "correct", 3, 33, 0, {330, 345, 933, 226, 178, 4306, 191, 2, 410}},
    {"bluetooth_4", "seq", false, "correct", 3, 37, 0, {1412, 1594, 5644, 1076, 1125, 6564, 359, 1, 1506}},
    {"bluetooth_5", "seq", false, "correct", 3, 48, 0, {5944, 7584, 32402, 5323, 7598, 10340, 544, 2, 5737}},
    {"bluetooth_6", "seq", false, "correct", 3, 34, 0, {24835, 39873, 192814, 29001, 51880, 11816, 1023, 1, 22297}},
    {"parallel_sum_2", "seq", false, "correct", 2, 7, 0, {11, 11, 5, 0, 1, 75, 4, 1, 21}},
    {"parallel_sum_3", "seq", false, "correct", 2, 9, 0, {23, 23, 17, 0, 1, 141, 6, 1, 38}},
    {"parallel_sum_4", "seq", false, "correct", 2, 11, 0, {47, 47, 49, 0, 1, 238, 8, 1, 71}},
    {"parallel_sum_5", "seq", false, "correct", 2, 13, 0, {95, 95, 129, 0, 1, 372, 10, 1, 136}},
    {"parallel_sum_6", "seq", false, "correct", 2, 15, 0, {191, 191, 321, 0, 1, 549, 12, 1, 265}},
    {"barrier_2", "seq", false, "correct", 2, 14, 0, {19, 19, 4, 0, 1, 274, 6, 1, 38}},
    {"barrier_3", "seq", false, "correct", 2, 20, 0, {55, 55, 28, 0, 1, 950, 9, 1, 104}},
    {"barrier_4", "seq", false, "correct", 2, 26, 0, {163, 163, 136, 0, 1, 3002, 12, 1, 294}},
    {"barrier_5", "seq", false, "correct", 2, 32, 0, {487, 487, 568, 0, 1, 8814, 15, 1, 844}},
    {"parallel_sum_3x2", "seq", false, "correct", 2, 15, 0, {80, 80, 82, 0, 1, 504, 12, 1, 117}},
    {"parallel_sum_4x2", "seq", false, "correct", 2, 19, 0, {242, 242, 352, 0, 1, 980, 16, 1, 335}},
    {"loop_sum_safe_5", "seq", false, "correct", 6, 42, 0, {29, 29, 14, 0, 31, 5377, 1, 5, 62}},
    {"loop_sum_bug_5", "seq", false, "incorrect", 6, 42, 0, {0, 21, 1, 0, 4, 5377, 10, 6, 62}},
    {"loop_sum_safe_6", "seq", false, "correct", 7, 49, 0, {33, 33, 16, 0, 38, 8352, 1, 6, 71}},
    {"loop_sum_bug_6", "seq", false, "incorrect", 7, 49, 0, {0, 24, 1, 0, 5, 8352, 10, 7, 71}},
    {"chase_safe", "seq", false, "correct", 2, 5, 0, {11, 11, 4, 0, 1, 52, 2, 1, 20}},
    {"chase_bug", "seq", false, "incorrect", 1, 1, 0, {0, 7, 0, 0, 0, 7, 4, 1, 14}},
    {"nested_safe_3", "seq", false, "correct", 2, 6, 0, {24, 24, 10, 0, 7, 124, 2, 1, 29}},
    {"nested_bug_3", "seq", false, "incorrect", 5, 38, 0, {0, 33, 0, 0, 5, 4886, 30, 3, 68}},
    {"affine_sum_safe_5", "seq", false, "correct", 6, 42, 0, {29, 29, 14, 0, 31, 5377, 1, 5, 62}},
    {"affine_sum_bug_5", "seq", false, "incorrect", 6, 42, 0, {0, 21, 1, 0, 4, 5377, 10, 6, 62}},
    {"stride_pair_safe_5", "seq", false, "correct", 6, 57, 0, {40, 40, 19, 0, 35, 9236, 2, 5, 76}},
    {"stride_pair_bug_5", "seq", false, "incorrect", 6, 57, 0, {0, 24, 2, 0, 3, 9236, 7, 6, 76}},
    {"counter_safe_2x1", "rand(1)", false, "correct", 4, 7, 0, {4, 4, 9, 1, 7, 111, 8, 3, 23}},
    {"counter_bug_2x1", "rand(1)", false, "incorrect", 3, 5, 0, {0, 4, 2, 1, 5, 69, 8, 3, 21}},
    {"counter_safe_2x2", "rand(1)", false, "correct", 4, 11, 0, {10, 10, 25, 3, 8, 316, 12, 3, 39}},
    {"counter_bug_2x2", "rand(1)", false, "incorrect", 3, 9, 0, {0, 7, 6, 3, 6, 184, 12, 3, 36}},
    {"counter_safe_3x1", "rand(1)", false, "correct", 5, 9, 0, {8, 8, 25, 3, 10, 249, 12, 4, 36}},
    {"counter_bug_3x1", "rand(1)", false, "incorrect", 4, 7, 0, {0, 5, 6, 3, 8, 168, 12, 4, 33}},
    {"counter_safe_3x2", "rand(1)", false, "correct", 8, 15, 0, {28, 28, 105, 7, 11, 1186, 24, 7, 80}},
    {"counter_bug_3x2", "rand(1)", false, "incorrect", 7, 13, 0, {0, 9, 25, 5, 9, 856, 24, 7, 64}},
    {"counter_safe_4x1", "rand(1)", false, "correct", 4, 11, 0, {20, 20, 48, 6, 8, 471, 12, 3, 55}},
    {"counter_bug_4x1", "rand(1)", false, "incorrect", 3, 9, 0, {0, 7, 4, 3, 6, 295, 12, 3, 45}},
    {"counter_safe_4x2", "rand(1)", false, "correct", 9, 19, 0, {81, 81, 350, 13, 23, 2467, 30, 8, 165}},
    {"counter_bug_4x2", "rand(1)", false, "incorrect", 8, 17, 0, {0, 10, 54, 13, 21, 1802, 30, 8, 91}},
    {"mutex_safe_2", "rand(1)", false, "correct", 2, 8, 0, {22, 22, 3, 3, 1, 110, 6, 1, 30}},
    {"mutex_bug_2", "rand(1)", false, "incorrect", 2, 8, 0, {0, 28, 6, 0, 4, 197, 13, 2, 43}},
    {"mutex_safe_3", "rand(1)", false, "correct", 2, 8, 0, {60, 60, 30, 2, 5, 157, 16, 1, 94}},
    {"mutex_bug_3", "rand(1)", false, "incorrect", 2, 8, 0, {0, 40, 9, 4, 1, 284, 33, 2, 72}},
    {"mutex_safe_4", "rand(1)", false, "correct", 2, 8, 0, {165, 165, 104, 18, 17, 201, 31, 1, 204}},
    {"mutex_bug_4", "rand(1)", false, "incorrect", 3, 10, 0, {0, 53, 27, 5, 14, 649, 75, 2, 155}},
    {"prodcons_safe", "rand(1)", false, "correct", 2, 3, 0, {19, 19, 30, 2, 2, 34, 5, 1, 25}},
    {"prodcons_bug", "rand(1)", false, "incorrect", 2, 3, 0, {0, 17, 8, 8, 0, 58, 4, 2, 23}},
    {"bank_safe", "rand(1)", false, "correct", 2, 3, 0, {7, 7, 0, 12, 0, 30, 0, 1, 11}},
    {"bank_bug", "rand(1)", false, "incorrect", 2, 3, 0, {0, 7, 3, 0, 0, 40, 6, 2, 25}},
    {"ticket_safe_2", "rand(1)", false, "correct", 2, 18, 0, {36, 36, 13, 0, 2, 625, 8, 1, 58}},
    {"ticket_bug_2", "rand(1)", false, "incorrect", 2, 21, 0, {0, 24, 8, 1, 0, 580, 10, 2, 53}},
    {"ticket_safe_3", "rand(1)", false, "correct", 3, 31, 0, {198, 198, 109, 9, 19, 4832, 51, 2, 267}},
    {"ticket_bug_3", "rand(1)", false, "incorrect", 3, 43, 0, {0, 39, 23, 25, 9, 3150, 40, 2, 139}},
    {"bluetooth_bug_1", "rand(1)", false, "incorrect", 2, 12, 0, {0, 42, 25, 3, 8, 494, 13, 2, 54}},
    {"bluetooth_bug_2", "rand(1)", false, "incorrect", 2, 12, 0, {0, 137, 113, 9, 54, 1244, 35, 2, 120}},
    {"bluetooth_bug_3", "rand(1)", false, "incorrect", 4, 38, 0, {0, 896, 3789, 521, 1097, 12508, 366, 4, 1248}},
    {"bluetooth_bug_4", "rand(1)", false, "incorrect", 6, 48, 0, {0, 1881, 9522, 829, 667, 18261, 257, 5, 2853}},
    {"peterson_safe", "rand(1)", false, "correct", 2, 17, 0, {59, 59, 19, 2, 6, 727, 16, 1, 73}},
    {"peterson_bug", "rand(1)", false, "incorrect", 2, 15, 0, {0, 21, 9, 0, 1, 358, 9, 2, 43}},
    {"rw_safe_2", "rand(1)", false, "correct", 3, 17, 0, {17, 20, 18, 6, 10, 392, 21, 2, 65}},
    {"rw_bug_2", "rand(1)", false, "incorrect", 2, 10, 0, {0, 10, 1, 0, 1, 140, 19, 2, 31}},
    {"rw_safe_3", "rand(1)", false, "correct", 2, 14, 0, {86, 86, 52, 11, 7, 346, 28, 1, 115}},
    {"rw_bug_3", "rand(1)", false, "incorrect", 2, 15, 0, {0, 17, 6, 0, 2, 327, 25, 2, 59}},
    {"counter_safe_5x2", "rand(1)", false, "correct", 11, 23, 0, {243, 243, 1138, 24, 18, 5165, 38, 10, 429}},
    {"counter_bug_5x2", "rand(1)", false, "incorrect", 10, 21, 0, {0, 14, 86, 24, 16, 3946, 38, 10, 136}},
    {"mutex_safe_5", "rand(1)", false, "correct", 2, 11, 0, {480, 480, 328, 10, 49, 351, 48, 1, 626}},
    {"mutex_bug_5", "rand(1)", false, "incorrect", 2, 11, 0, {0, 51, 15, 12, 3, 490, 95, 1, 213}},
    {"bluetooth_1", "rand(1)", false, "correct", 3, 16, 0, {12, 74, 54, 0, 39, 1249, 22, 1, 58}},
    {"bluetooth_2", "rand(1)", false, "correct", 4, 26, 0, {85, 204, 573, 10, 254, 4996, 100, 2, 210}},
    {"bluetooth_3", "rand(1)", false, "correct", 4, 30, 0, {401, 807, 3537, 167, 1141, 9490, 293, 2, 795}},
    {"bluetooth_4", "rand(1)", false, "correct", 4, 38, 0, {3036, 3036, 9996, 630, 2340, 15444, 478, 2, 2273}},
    {"bluetooth_5", "rand(1)", false, "correct", 5, 33, 0, {16599, 16599, 59346, 1298, 8274, 19045, 976, 4, 9296}},
    {"bluetooth_6", "rand(1)", false, "correct", 5, 58, 0, {66895, 230552, 1411471, 3502, 550804, 74222, 3851, 3, 58137}},
    {"parallel_sum_2", "rand(1)", false, "correct", 4, 7, 0, {4, 4, 9, 1, 7, 111, 8, 3, 23}},
    {"parallel_sum_3", "rand(1)", false, "correct", 5, 9, 0, {8, 8, 25, 3, 10, 249, 12, 4, 36}},
    {"parallel_sum_4", "rand(1)", false, "correct", 4, 11, 0, {20, 20, 48, 6, 8, 471, 12, 3, 55}},
    {"parallel_sum_5", "rand(1)", false, "correct", 6, 13, 0, {33, 33, 126, 10, 14, 905, 18, 5, 88}},
    {"parallel_sum_6", "rand(1)", false, "correct", 8, 15, 0, {67, 67, 277, 18, 10, 1642, 24, 7, 150}},
    {"barrier_2", "rand(1)", false, "correct", 3, 14, 0, {12, 12, 12, 3, 3, 347, 7, 2, 46}},
    {"barrier_3", "rand(1)", false, "correct", 3, 22, 0, {35, 35, 50, 0, 1, 1087, 9, 2, 100}},
    {"barrier_4", "rand(1)", false, "correct", 3, 26, 0, {84, 84, 222, 0, 1, 2028, 14, 2, 223}},
    {"barrier_5", "rand(1)", false, "correct", 3, 34, 0, {257, 257, 803, 1, 1, 5974, 14, 2, 537}},
    {"parallel_sum_3x2", "rand(1)", false, "correct", 8, 15, 0, {28, 28, 105, 7, 11, 1186, 24, 7, 80}},
    {"parallel_sum_4x2", "rand(1)", false, "correct", 9, 19, 0, {81, 81, 350, 13, 23, 2467, 30, 8, 165}},
    {"loop_sum_safe_5", "rand(1)", false, "correct", 2, 6, 0, {13, 13, 10, 0, 3, 67, 1, 1, 20}},
    {"loop_sum_bug_5", "rand(1)", false, "incorrect", 7, 41, 0, {0, 35, 96, 0, 37, 3876, 10, 7, 70}},
    {"loop_sum_safe_6", "rand(1)", false, "correct", 2, 6, 0, {13, 13, 10, 0, 3, 67, 1, 1, 20}},
    {"loop_sum_bug_6", "rand(1)", false, "incorrect", 8, 48, 0, {0, 41, 134, 0, 47, 5747, 10, 8, 80}},
    {"chase_safe", "rand(1)", false, "correct", 2, 3, 0, {15, 15, 10, 0, 3, 43, 2, 1, 18}},
    {"chase_bug", "rand(1)", false, "incorrect", 3, 5, 0, {0, 11, 4, 0, 4, 93, 10, 2, 23}},
    {"nested_safe_3", "rand(1)", false, "correct", 2, 3, 0, {29, 29, 18, 0, 7, 56, 2, 1, 23}},
    {"nested_bug_3", "rand(1)", false, "incorrect", 4, 10, 0, {0, 9, 16, 0, 9, 356, 4, 3, 29}},
    {"affine_sum_safe_5", "rand(1)", false, "correct", 2, 6, 0, {13, 13, 10, 0, 3, 67, 1, 1, 20}},
    {"affine_sum_bug_5", "rand(1)", false, "incorrect", 7, 41, 0, {0, 35, 96, 0, 37, 3876, 10, 7, 70}},
    {"stride_pair_safe_5", "rand(1)", false, "correct", 2, 3, 0, {17, 17, 12, 0, 3, 50, 2, 1, 17}},
    {"stride_pair_bug_5", "rand(1)", false, "incorrect", 6, 40, 0, {0, 42, 100, 0, 24, 2850, 5, 6, 50}},
    {"counter_safe_2x2", "lockstep", false, "correct", 3, 11, 0, {16, 16, 19, 2, 3, 284, 12, 2, 40}},
    {"counter_bug_3x1", "lockstep", false, "incorrect", 1, 1, 0, {0, 5, 0, 0, 0, 6, 6, 1, 20}},
    {"counter_safe_4x1", "lockstep", false, "correct", 2, 11, 0, {47, 47, 49, 0, 1, 238, 8, 1, 71}},
    {"counter_bug_4x2", "lockstep", false, "incorrect", 2, 11, 0, {0, 11, 0, 6, 1, 407, 24, 2, 79}},
    {"mutex_safe_3", "lockstep", false, "correct", 2, 12, 0, {62, 62, 54, 6, 4, 231, 20, 1, 112}},
    {"mutex_bug_4", "lockstep", false, "incorrect", 1, 1, 0, {0, 75, 94, 15, 0, 23, 48, 1, 167}},
    {"bank_safe", "lockstep", false, "correct", 2, 3, 0, {38, 38, 18, 26, 4, 36, 0, 1, 34}},
    {"ticket_bug_2", "lockstep", false, "incorrect", 1, 1, 0, {0, 17, 3, 3, 0, 15, 8, 1, 34}},
    {"bluetooth_bug_1", "lockstep", false, "incorrect", 2, 17, 0, {0, 54, 15, 11, 7, 762, 15, 1, 52}},
    {"bluetooth_bug_4", "lockstep", false, "incorrect", 3, 34, 0, {0, 10999, 33344, 10814, 13578, 12076, 277, 3, 4649}},
    {"rw_safe_2", "lockstep", false, "correct", 2, 16, 0, {33, 33, 14, 3, 2, 233, 16, 1, 51}},
    {"rw_bug_3", "lockstep", false, "incorrect", 2, 21, 0, {0, 23, 14, 1, 3, 579, 27, 2, 66}},
    {"mutex_safe_5", "lockstep", false, "correct", 2, 16, 0, {477, 477, 836, 36, 86, 471, 56, 1, 731}},
    {"bluetooth_2", "lockstep", false, "correct", 3, 22, 0, {333, 333, 492, 97, 263, 3574, 76, 2, 206}},
    {"bluetooth_5", "lockstep", false, "correct", 3, 40, 0, {114665, 181339, 939248, 76803, 400091, 36021, 1530, 2, 13947}},
    {"parallel_sum_3", "lockstep", false, "correct", 2, 9, 0, {23, 23, 17, 0, 1, 141, 6, 1, 38}},
    {"parallel_sum_6", "lockstep", false, "correct", 2, 15, 0, {191, 191, 321, 0, 1, 549, 12, 1, 265}},
    {"barrier_4", "lockstep", false, "correct", 2, 24, 0, {99, 99, 200, 0, 1, 1500, 9, 1, 236}},
    {"parallel_sum_4x2", "lockstep", false, "correct", 3, 19, 0, {122, 122, 315, 34, 3, 1224, 24, 2, 210}},
    {"loop_sum_safe_6", "lockstep", false, "correct", 2, 6, 0, {14, 14, 10, 0, 1, 67, 1, 1, 19}},
    {"chase_bug", "lockstep", false, "incorrect", 2, 3, 0, {0, 11, 0, 0, 2, 46, 6, 2, 17}},
    {"affine_sum_safe_5", "lockstep", false, "correct", 2, 6, 0, {14, 14, 10, 0, 1, 67, 1, 1, 19}},
    {"stride_pair_bug_5", "lockstep", false, "incorrect", 6, 41, 0, {0, 42, 90, 0, 20, 3006, 4, 6, 55}},
    {"bluetooth_2", "seq", true, "correct", 3, 24, 8, {5063, 584, 8911, 2463, 44, 43523, 726, 2, 528}},
    {"mutex_safe_2", "seq", true, "correct", 2, 8, 4, {102, 22, 17, 19, 3, 630, 16, 1, 55}},
    {"counter_safe_2x1", "seq", true, "correct", 2, 7, 4, {47, 12, 20, 0, 1, 375, 6, 1, 33}},
};
// clang-format on

/// Every tier-1 instance. The suite already holds bluetooth(1..6) and the
/// bug variants bluetooth_bug(1..4); GoldenCoversBluetooth checks it.
std::vector<workloads::WorkloadInstance> goldenInstances() {
  return workloads::tier1Suite();
}

/// Correct instances that also run with proof minimization, which re-runs
/// the proof check once per pool predicate under a shrinking mask.
const char *const MinimizedInstances[] = {"bluetooth_2", "mutex_safe_2",
                                          "counter_safe_2x1"};

std::string formatRow(const std::string &Instance, const std::string &Order,
                      bool Minimize, const VerificationResult &R) {
  std::ostringstream OS;
  OS << "    {\"" << Instance << "\", \"" << Order << "\", "
     << (Minimize ? "true" : "false") << ", \"" << verdictName(R.V)
     << "\", " << R.Rounds << ", " << R.ProofSize << ", "
     << R.MinimizedProofSize << ", {";
  for (size_t I = 0; I < NumCounters; ++I)
    OS << (I ? ", " : "") << R.Stats.get(CounterNames[I]);
  OS << "}},";
  return OS.str();
}

const GoldenRow *findRow(const std::string &Instance, const std::string &Order,
                         bool Minimize) {
  for (const GoldenRow &Row : Golden)
    if (Instance == Row.Instance && Order == Row.Order &&
        Minimize == Row.Minimize)
      return &Row;
  return nullptr;
}

/// Runs Instance under Order and compares against its pinned row.
void checkRun(const workloads::WorkloadInstance &W, const std::string &Order,
              bool Minimize) {
  smt::TermManager TM;
  prog::BuildResult B = prog::buildFromSource(W.Source, TM);
  ASSERT_TRUE(B.ok()) << W.Name << ": " << B.Error;
  VerifierConfig Cfg;
  Cfg.TimeoutSeconds = 120;
  Cfg.MinimizeProof = Minimize;
  VerificationResult R = runSingleOrder(*B.Program, Cfg, Order);
  std::string Actual = formatRow(W.Name, Order, Minimize, R);
  const GoldenRow *Row = findRow(W.Name, Order, Minimize);
  if (!Row) {
    ADD_FAILURE() << "no pinned row; actual:\n" << Actual;
    return;
  }
  bool Same = verdictName(R.V) == Row->Verdict && R.Rounds == Row->Rounds &&
              R.ProofSize == Row->ProofSize &&
              R.MinimizedProofSize == Row->MinimizedProofSize;
  for (size_t I = 0; I < NumCounters; ++I)
    Same = Same && R.Stats.get(CounterNames[I]) == Row->Counters[I];
  EXPECT_TRUE(Same) << "counters moved; actual:\n" << Actual;
}

TEST(DfsGolden, GoldenCoversBluetooth) {
  std::map<std::string, bool> Seen;
  for (const auto &W : goldenInstances())
    Seen[W.Name] = true;
  for (int Users = 2; Users <= 4; ++Users) {
    EXPECT_TRUE(Seen.count("bluetooth_" + std::to_string(Users)));
    EXPECT_TRUE(Seen.count("bluetooth_bug_" + std::to_string(Users)));
  }
}

TEST(DfsGolden, SeqOrder) {
  for (const auto &W : goldenInstances())
    checkRun(W, "seq", false);
}

TEST(DfsGolden, RandOrder) {
  for (const auto &W : goldenInstances())
    checkRun(W, "rand(1)", false);
}

TEST(DfsGolden, LockstepEveryThirdInstance) {
  std::vector<workloads::WorkloadInstance> All = goldenInstances();
  for (size_t I = 2; I < All.size(); I += 3)
    checkRun(All[I], "lockstep", false);
}

TEST(DfsGolden, MinimizedProofs) {
  std::map<std::string, workloads::WorkloadInstance> ByName;
  for (auto &W : goldenInstances())
    ByName.emplace(W.Name, W);
  for (const char *Name : MinimizedInstances) {
    auto It = ByName.find(Name);
    ASSERT_NE(It, ByName.end()) << Name;
    checkRun(It->second, "seq", true);
  }
}

} // namespace
