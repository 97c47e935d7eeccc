//===- tests/arm_matrix_test.cpp - Full-suite slices of four axes ---------===//
///
/// Runs the fusion, incremental, tiers and commut axes of the differential
/// arm matrix (tools/arm_matrix.h) on the full tier-1 suites with a 20 s
/// budget per run, one slice of suites x arms per test, so a failure names
/// the suite or arm group it is in. Each slice applies the axis's own
/// rules: all its arms agree, every decisive verdict is the expected one,
/// and every counter relation over kept arms holds (a total only when the
/// slice keeps all of its suites). docs/CHECKS.md lists the axes.
///
//===----------------------------------------------------------------------===//

#include "arm_matrix.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace seqver;

namespace {

int runSlice(const std::string &Axis, std::vector<std::string> Suites,
             std::vector<std::string> Arms, unsigned Jobs = 0) {
  check::CheckOptions Opts;
  Opts.TimeoutSeconds = 20;
  Opts.Jobs = Jobs;
  Opts.Suites = std::move(Suites);
  Opts.Arms = std::move(Arms);
  return check::runAxis(Axis, Opts);
}

/// Fused vs unfused seq order, pruned program: fused visited <= unfused
/// and under the suite's cap, and at least one fused transaction, per
/// suite.
int fusionSuite(const std::string &Suite) {
  return runSlice("fusion", {Suite}, {"unfused", "fused"});
}

TEST(FusionDifferential, SvcompLikeSuiteVerdictsAgree) {
  EXPECT_EQ(fusionSuite("svcomp"), 0);
}

TEST(FusionDifferential, WeaverLikeSuiteVerdictsAgree) {
  EXPECT_EQ(fusionSuite("weaver"), 0);
}

/// Here fused visited must be strictly below unfused.
TEST(FusionDifferential, LoopHeavySuiteStrictlyShrinks) {
  EXPECT_EQ(fusionSuite("loop_heavy"), 0);
}

TEST(FusionDifferential, AffineSuiteStrictlyShrinks) {
  EXPECT_EQ(fusionSuite("affine"), 0);
}

/// The 2-job race with in-worker fusion agrees with the unfused seq order
/// on all of tier 1, and the merged counters carry fusion_transactions.
TEST(FusionDifferential, ParallelPortfolioAgreesOnTier1) {
  EXPECT_EQ(runSlice("fusion", {}, {"unfused", "par-fused"}, /*Jobs=*/2), 0);
}

/// Sessions on vs off on the full static stack; sessions were opened
/// wherever the fresh arm queried the solver.
int incrementalSuite(const std::string &Suite) {
  return runSlice("incremental", {Suite}, {"full/inc", "full/fresh"});
}

TEST(IncrementalDifferential, SvcompLikeSuite) {
  EXPECT_EQ(incrementalSuite("svcomp"), 0);
}

TEST(IncrementalDifferential, WeaverLikeSuite) {
  EXPECT_EQ(incrementalSuite("weaver"), 0);
}

TEST(IncrementalDifferential, LoopHeavySuite) {
  EXPECT_EQ(incrementalSuite("loop_heavy"), 0);
}

TEST(IncrementalDifferential, AffineSuite) {
  EXPECT_EQ(incrementalSuite("affine"), 0);
}

/// Sessions on vs off on the full static stack over all of tier 1: the
/// sessions spend at most 70% of the fresh arm's solver time, and their
/// stored countermodels leave at most half of its Sat solves.
TEST(IncrementalDifferential, SessionsSaveSolverTime) {
  EXPECT_EQ(runSlice("incremental",
                     {"svcomp", "weaver", "loop_heavy", "affine"},
                     {"full/inc", "full/fresh"}),
            0);
}

/// The other three tier arms x inc/fresh on every third workload of tier
/// 1: each tier routes a different query mix into the sessions.
TEST(IncrementalDifferential, TierArms) {
  EXPECT_EQ(runSlice("incremental", {},
                     {"no-karr/inc", "no-karr/fresh", "seeded/inc",
                      "seeded/fresh", "int-only/inc", "int-only/fresh"}),
            0);
}

/// The invariant tiers and proof seeding on the loop-heavy and affine
/// suites: seeding saves rounds (and its Karr atoms do on affine), the
/// octagon and Karr sub-tiers save semantic checks under seq and rounds
/// under rand(1), and under rand(1) they cost a round on no workload.
TEST(TiersDifferential, InvariantTiersAndSeedsSaveRounds) {
  EXPECT_EQ(runSlice("tiers", {"loop_heavy", "affine"},
                     {"full", "seeded", "int-only", "seeded/no-karr",
                      "full/rand", "int-only/rand"}),
            0);
}

/// The shared commutativity oracle on all of tier 1, as one-job races: its
/// semantic-query count stays under the cap set on these suites, and a
/// warm start from the persisted oracle asks at most 30% of a cold one's.
TEST(CommutDifferential, SharedOracleCap) {
  EXPECT_EQ(runSlice("commut", {}, {}), 0);
}

/// A filter that names nothing of the axis is a setup error, not a pass.
TEST(ArmMatrix, UnknownSuiteOrArmIsSetupError) {
  EXPECT_EQ(runSlice("fusion", {"no_such_suite"}, {}), 2);
  EXPECT_EQ(runSlice("incremental", {}, {"full/inc", "no-such-arm"}), 2);
}

} // namespace
