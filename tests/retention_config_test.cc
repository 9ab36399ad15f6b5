// Typed validation of the retention configuration (ValidateRetentionConfig)
// and of the per-range policy table: a config that would silently retain
// nothing must be rejected with a diagnosable error, and a device handed
// such a config must fall back to the paper's 10 s window — for release and
// rollback alike — instead of running unprotected.
#include <gtest/gtest.h>

#include <memory>

#include "ftl/page_ftl.h"
#include "ftl/policy.h"
#include "nand/geometry.h"
#include "version/range_policy.h"

namespace insider::ftl {
namespace {

FtlConfig BaseConfig() {
  FtlConfig cfg;
  cfg.geometry = nand::TestGeometry();
  cfg.latency = nand::LatencyModel::Zero();
  return cfg;
}

TEST(RetentionConfigTest, DefaultConfigIsValid) {
  RetentionConfigError e = ValidateRetentionConfig(BaseConfig());
  EXPECT_TRUE(e.ok());
  EXPECT_EQ(e.issue, RetentionConfigIssue::kNone);
}

TEST(RetentionConfigTest, NegativeWindowRejected) {
  FtlConfig cfg = BaseConfig();
  cfg.retention_window = -Seconds(1);
  RetentionConfigError e = ValidateRetentionConfig(cfg);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.issue, RetentionConfigIssue::kNegativeWindow);
  EXPECT_FALSE(e.detail.empty());
}

TEST(RetentionConfigTest, ZeroWindowWithDelayedDeletionIsNoOp) {
  FtlConfig cfg = BaseConfig();
  cfg.retention_window = 0;
  RetentionConfigError e = ValidateRetentionConfig(cfg);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.issue, RetentionConfigIssue::kNoOpRetention);
}

TEST(RetentionConfigTest, ZeroWindowAllowedInConventionalMode) {
  FtlConfig cfg = BaseConfig();
  cfg.delayed_deletion = false;
  cfg.retention_window = 0;
  EXPECT_TRUE(ValidateRetentionConfig(cfg).ok());
}

TEST(RetentionConfigTest, RangePoliciesRequireDelayedDeletion) {
  FtlConfig cfg = BaseConfig();
  cfg.delayed_deletion = false;
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 64, 4, Seconds(60)}));
  cfg.range_policies = table;
  RetentionConfigError e = ValidateRetentionConfig(cfg);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.issue, RetentionConfigIssue::kInvalidRangePolicy);
}

TEST(RetentionConfigTest, EmptyRangeTableIsValid) {
  FtlConfig cfg = BaseConfig();
  cfg.range_policies = std::make_shared<version::RangePolicyTable>();
  EXPECT_TRUE(ValidateRetentionConfig(cfg).ok());
}

TEST(RetentionConfigTest, IssueNamesAreStable) {
  EXPECT_STREQ(ToString(RetentionConfigIssue::kNone), "none");
  EXPECT_STREQ(ToString(RetentionConfigIssue::kNegativeWindow),
               "negative-window");
  EXPECT_STREQ(ToString(RetentionConfigIssue::kNoOpRetention),
               "no-op-retention");
  EXPECT_STREQ(ToString(RetentionConfigIssue::kInvalidRangePolicy),
               "invalid-range-policy");
}

// A device built from a rejected config must not come up half-protected: it
// records the error, falls back to the paper window, and keeps serving I/O
// with the version store disabled.
TEST(RetentionConfigTest, FtlFallsBackToWindowPolicyOnBadConfig) {
  FtlConfig cfg = BaseConfig();
  cfg.retention_window = -Seconds(1);
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 64, 4, Seconds(60)}));
  cfg.range_policies = table;

  PageFtl ftl(cfg);
  EXPECT_EQ(ftl.RetentionConfigStatus().issue,
            RetentionConfigIssue::kNegativeWindow);
  EXPECT_FALSE(ftl.Store().Enabled());
  EXPECT_TRUE(ftl.WritePage(0, {1, {}}, Seconds(1)).ok());
  EXPECT_TRUE(ftl.WritePage(0, {2, {}}, Seconds(2)).ok());
  EXPECT_EQ(ftl.ReadPage(0, Seconds(2)).data.stamp, 2u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

// The fallback window governs rollback as well as release. With a zero
// window rejected, release keeps the 5 s backup under the 10 s fallback, so
// a rollback at 6 s must revert it; reading the raw config (horizon 6 s)
// would revert nothing.
TEST(RetentionConfigTest, RollbackUsesFallbackWindowOnBadConfig) {
  FtlConfig cfg = BaseConfig();
  cfg.retention_window = 0;
  PageFtl ftl(cfg);
  ASSERT_EQ(ftl.RetentionConfigStatus().issue,
            RetentionConfigIssue::kNoOpRetention);
  ASSERT_TRUE(ftl.WritePage(0, {1, {}}, Seconds(1)).ok());
  ASSERT_TRUE(ftl.WritePage(0, {2, {}}, Seconds(5)).ok());
  ASSERT_EQ(ftl.RecoveryQueueSize(), 1u);
  RollbackReport r = ftl.RollBack(Seconds(6));
  EXPECT_EQ(r.entries_reverted, 1u);
  EXPECT_EQ(ftl.ReadPage(0, Seconds(6)).data.stamp, 1u);
  EXPECT_EQ(ftl.CheckInvariants(), "");
}

TEST(RetentionConfigTest, FtlAcceptsValidRangePolicies) {
  FtlConfig cfg = BaseConfig();
  auto table = std::make_shared<version::RangePolicyTable>();
  ASSERT_TRUE(table->Add({0, 64, 4, Seconds(60)}));
  cfg.range_policies = table;
  PageFtl ftl(cfg);
  EXPECT_TRUE(ftl.RetentionConfigStatus().ok());
  EXPECT_TRUE(ftl.Store().Enabled());
}

// --------------------------------------------------------------------------
// RangePolicyTable construction rules

TEST(RangePolicyTableTest, RejectsEmptyAndInvertedRanges) {
  version::RangePolicyTable t;
  EXPECT_FALSE(t.Add({10, 10, 4, Seconds(1)}));
  EXPECT_FALSE(t.Add({10, 5, 4, Seconds(1)}));
  EXPECT_EQ(t.RangeCount(), 0u);
}

TEST(RangePolicyTableTest, RejectsPolicyThatRetainsNothing) {
  version::RangePolicyTable t;
  EXPECT_FALSE(t.Add({0, 64, 0, 0}));
  EXPECT_FALSE(t.Add({0, 64, 4, -Seconds(1)}));
  EXPECT_TRUE(t.Add({0, 64, 4, 0}));   // count-only retention is fine
  version::RangePolicyTable t2;
  EXPECT_TRUE(t2.Add({0, 64, 0, Seconds(5)}));  // window-only too
}

TEST(RangePolicyTableTest, RejectsOverlap) {
  version::RangePolicyTable t;
  ASSERT_TRUE(t.Add({10, 20, 4, Seconds(1)}));
  EXPECT_FALSE(t.Add({15, 25, 4, Seconds(1)}));
  EXPECT_FALSE(t.Add({0, 11, 4, Seconds(1)}));
  EXPECT_FALSE(t.Add({10, 20, 8, Seconds(2)}));
  EXPECT_TRUE(t.Add({20, 25, 4, Seconds(1)}));  // adjacent is not overlap
  EXPECT_TRUE(t.Add({0, 10, 4, Seconds(1)}));
  EXPECT_EQ(t.RangeCount(), 3u);
}

TEST(RangePolicyTableTest, FindAndIndexOf) {
  version::RangePolicyTable t;
  ASSERT_TRUE(t.Add({100, 200, 4, Seconds(1)}));
  ASSERT_TRUE(t.Add({10, 20, 2, Seconds(2)}));

  EXPECT_TRUE(t.Protected(10));
  EXPECT_TRUE(t.Protected(19));
  EXPECT_FALSE(t.Protected(20));
  EXPECT_FALSE(t.Protected(9));
  EXPECT_TRUE(t.Protected(150));
  EXPECT_FALSE(t.Protected(200));

  const version::RangePolicy* p = t.Find(15);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->keep_versions, 2u);
  EXPECT_EQ(t.Find(50), nullptr);

  // Ranges() is sorted by begin; IndexOf follows that order.
  EXPECT_EQ(t.IndexOf(15), 0u);
  EXPECT_EQ(t.IndexOf(150), 1u);
  EXPECT_EQ(t.IndexOf(50), SIZE_MAX);
}

}  // namespace
}  // namespace insider::ftl
