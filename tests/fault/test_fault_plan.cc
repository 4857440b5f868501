#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/error.h"
#include "fault/fault_plan.h"
#include "hw/config.h"

namespace crophe::fault {
namespace {

TEST(FaultPlan, DefaultPlanIsEmpty)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.degradesHardware());
    EXPECT_EQ(plan.toString(), "");
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, ParseReadsEveryKey)
{
    auto plan = FaultPlan::parse(
        "seed=7,dram-err=1e-3,dram-ecc=0.25,dram-retries=5,"
        "dram-backoff=50,stalled-channels=2,channel-stall=300,"
        "noc-fail=0.002,noc-extra-hops=4,dead-pe-groups=1,"
        "failed-sram-banks=2");
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.dramErrorRate, 1e-3);
    EXPECT_DOUBLE_EQ(plan.dramEccFraction, 0.25);
    EXPECT_EQ(plan.dramRetryLimit, 5u);
    EXPECT_DOUBLE_EQ(plan.dramRetryBackoffCycles, 50.0);
    EXPECT_EQ(plan.stalledDramChannels, 2u);
    EXPECT_DOUBLE_EQ(plan.channelStallCycles, 300.0);
    EXPECT_DOUBLE_EQ(plan.nocLinkFailRate, 0.002);
    EXPECT_EQ(plan.nocRerouteExtraHops, 4u);
    EXPECT_EQ(plan.deadPeGroups, 1u);
    EXPECT_EQ(plan.failedSramBanks, 2u);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.degradesHardware());
}

TEST(FaultPlan, ToStringRoundTrips)
{
    const char *spec =
        "seed=42,dram-err=0.01,stalled-channels=3,noc-fail=0.005,"
        "dead-pe-groups=2,failed-sram-banks=4";
    auto plan = FaultPlan::parse(spec);
    auto again = FaultPlan::parse(plan.toString());
    EXPECT_EQ(plan.toString(), again.toString());
    EXPECT_EQ(again.seed, plan.seed);
    EXPECT_DOUBLE_EQ(again.dramErrorRate, plan.dramErrorRate);
    EXPECT_EQ(again.stalledDramChannels, plan.stalledDramChannels);
    EXPECT_EQ(again.deadPeGroups, plan.deadPeGroups);
    EXPECT_EQ(again.failedSramBanks, plan.failedSramBanks);
}

TEST(FaultPlan, ToStringOmitsDefaults)
{
    auto plan = FaultPlan::parse("dram-err=0.5");
    EXPECT_EQ(plan.toString(), "dram-err=0.5");
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("bogus-key=1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("seed"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("seed=abc"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("dram-err=1.5"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("dram-err=-0.1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("dram-backoff=-1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("dram-retries=17"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("failed-sram-banks=32"),
                 RecoverableError);
    EXPECT_THROW(FaultPlan::parse("noc-fail=nan"), RecoverableError);
}

TEST(FaultPlan, RejectsSignedOverflowingAndTruncatedIntegers)
{
    // Signs, blanks and values past 2^64-1 are not unsigned integers.
    for (const char *spec :
         {"seed=-1", "seed=+1", "seed= 1", "seed=18446744073709551616",
          "seed=99999999999999999999999"})
        EXPECT_THROW(FaultPlan::parse(spec), RecoverableError) << spec;
    EXPECT_EQ(FaultPlan::parse("seed=18446744073709551615").seed,
              UINT64_MAX);

    // The u32 keys reject values past 2^32-1 instead of truncating them
    // (4294967297 would otherwise read as 1).
    for (const char *key :
         {"chip-fail@1", "dram-retries", "stalled-channels",
          "noc-extra-hops", "dead-pe-groups", "failed-sram-banks",
          "dead-chips"}) {
        const std::string spec = std::string(key) + "=4294967297";
        EXPECT_THROW(FaultPlan::parse(spec), RecoverableError) << spec;
    }
    EXPECT_EQ(FaultPlan::parse("noc-extra-hops=4294967295")
                  .nocRerouteExtraHops,
              UINT32_MAX);
    try {
        FaultPlan::parse("seed=1,dead-pe-groups=4294967297");
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"dead-pe-groups=4294967297\""),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("at most 4294967295"), std::string::npos) << msg;
    }
}

TEST(FaultPlan, DegradedConfigShrinksTheArrayAndBuffer)
{
    auto healthy = hw::configCrophe36();
    auto plan = FaultPlan::parse("dead-pe-groups=1,failed-sram-banks=2");
    auto cfg = plan.degradedConfig(healthy);

    // One dead PE group = one mesh column of PEs gone.
    EXPECT_EQ(cfg.meshX, healthy.meshX - 1);
    EXPECT_EQ(cfg.numPes,
              healthy.numPes - healthy.numPes / healthy.meshX);
    // Two failed banks lose their capacity and bandwidth slices.
    double keep = 30.0 / 32.0;
    EXPECT_DOUBLE_EQ(cfg.sramMB, healthy.sramMB * keep);
    EXPECT_DOUBLE_EQ(cfg.sramGBs, healthy.sramGBs * keep);
    EXPECT_EQ(cfg.name, healthy.name + "+degraded");
    // The digest split is what keeps healthy plan-cache entries from
    // being served to degraded hardware.
    EXPECT_NE(hw::configDigest(cfg), hw::configDigest(healthy));
}

TEST(FaultPlan, TransientOnlyPlanLeavesHardwareAlone)
{
    auto healthy = hw::configCrophe64();
    auto plan = FaultPlan::parse("dram-err=1e-3,noc-fail=1e-3");
    EXPECT_FALSE(plan.degradesHardware());
    auto cfg = plan.degradedConfig(healthy);
    EXPECT_EQ(hw::configDigest(cfg), hw::configDigest(healthy));
}

TEST(FaultPlan, DegradedConfigRejectsTotalLoss)
{
    auto healthy = hw::configCrophe36();
    auto all_dead = FaultPlan::parse(
        "dead-pe-groups=" + std::to_string(healthy.meshX));
    EXPECT_THROW(all_dead.degradedConfig(healthy), RecoverableError);
}

TEST(FaultPlan, DegradationRatio)
{
    EXPECT_DOUBLE_EQ(degradationRatio(2.0, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(degradationRatio(3.0, 3.0), 1.0);
}

TEST(FaultPlan, ParsesTimedEventsSortedByTime)
{
    auto plan = FaultPlan::parse(
        "batch-fail=0.1,chip-fail@2.5=2,chip-fail@1=1,"
        "link-degrade@0.5=0.25");
    EXPECT_TRUE(plan.hasTimedFaults());
    EXPECT_FALSE(plan.empty());
    EXPECT_EQ(plan.timedDeadChips(), 3u);
    EXPECT_DOUBLE_EQ(plan.batchFailRate, 0.1);
    ASSERT_EQ(plan.chipFails.size(), 2u);
    EXPECT_DOUBLE_EQ(plan.chipFails[0].seconds, 1.0);  // sorted by time
    EXPECT_EQ(plan.chipFails[0].chips, 1u);
    EXPECT_DOUBLE_EQ(plan.chipFails[1].seconds, 2.5);
    EXPECT_EQ(plan.chipFails[1].chips, 2u);
    ASSERT_EQ(plan.linkDegrades.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.linkDegrades[0].seconds, 0.5);
    EXPECT_DOUBLE_EQ(plan.linkDegrades[0].fraction, 0.25);
}

TEST(FaultPlan, TimedEventsRoundTripThroughToString)
{
    auto plan = FaultPlan::parse(
        "seed=9,batch-fail=0.05,chip-fail@0.25=1,chip-fail@1.5=2,"
        "link-degrade@0.75=0.5");
    auto again = FaultPlan::parse(plan.toString());
    EXPECT_EQ(plan.toString(), again.toString());
    ASSERT_EQ(again.chipFails.size(), 2u);
    EXPECT_DOUBLE_EQ(again.chipFails[1].seconds, 1.5);
    EXPECT_EQ(again.chipFails[1].chips, 2u);
    ASSERT_EQ(again.linkDegrades.size(), 1u);
    EXPECT_DOUBLE_EQ(again.linkDegrades[0].fraction, 0.5);
    EXPECT_DOUBLE_EQ(again.batchFailRate, 0.05);
}

TEST(FaultPlan, RejectsMalformedTimedEvents)
{
    // A fire time is mandatory on the timed keys...
    EXPECT_THROW(FaultPlan::parse("chip-fail=1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("link-degrade=0.5"), RecoverableError);
    // ...and only valid there.
    EXPECT_THROW(FaultPlan::parse("dram-err@1=0.5"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("chip-fail@-1=1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("chip-fail@nan=1"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("chip-fail@1=0"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("link-degrade@1=0"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("link-degrade@1=1.5"), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("batch-fail=1.5"), RecoverableError);
}

TEST(FaultPlan, RejectionsNameTheOffendingTokenAndByteOffset)
{
    try {
        FaultPlan::parse("seed=1,bogus=2");
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"bogus=2\""), std::string::npos) << msg;
        EXPECT_NE(msg.find("at byte 7"), std::string::npos) << msg;
    }
    try {
        FaultPlan::parse("dram-err=0.1,chip-fail@oops=1");
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"chip-fail@oops=1\""), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("at byte 13"), std::string::npos) << msg;
    }
}

TEST(FaultPlan, PodSizeGuardRequiresASurvivor)
{
    // Valid: at least one chip stays alive.
    EXPECT_NO_THROW(FaultPlan::parse("dead-chips=1", 2));
    EXPECT_NO_THROW(FaultPlan::parse("dead-chips=1,chip-fail@1=1", 4));
    // dead-chips alone, a single chip-fail, and the *cumulative* total
    // must each leave a survivor.
    EXPECT_THROW(FaultPlan::parse("dead-chips=2", 2), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("chip-fail@1=2", 2), RecoverableError);
    EXPECT_THROW(FaultPlan::parse("dead-chips=1,chip-fail@1=1", 2),
                 RecoverableError);
    EXPECT_THROW(FaultPlan::parse("chip-fail@1=1,chip-fail@2=1", 2),
                 RecoverableError);
    // podChips = 0 (offline drivers without a pod) skips the guard.
    EXPECT_NO_THROW(FaultPlan::parse("dead-chips=7"));
}

TEST(FaultPlan, PodSizeGuardBlamesTheCrossingEvent)
{
    // Sorted fire order is @1 then @2; the cumulative total crosses the
    // line at the @2 event, so that token gets the blame even though it
    // appears first in the spec.
    try {
        FaultPlan::parse("chip-fail@2=1,chip-fail@1=1", 2);
        FAIL() << "expected RecoverableError";
    } catch (const RecoverableError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("\"chip-fail@2=1\""), std::string::npos) << msg;
        EXPECT_NE(msg.find("at byte 0"), std::string::npos) << msg;
    }
}

}  // namespace
}  // namespace crophe::fault
