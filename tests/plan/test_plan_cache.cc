#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "graph/workloads.h"
#include "hw/config.h"
#include "plan/plan_cache.h"
#include "plan/serialize.h"
#include "sched/scheduler.h"

namespace crophe::plan {
namespace {

namespace fs = std::filesystem;
using graph::RotMode;
using graph::WorkloadOptions;

sched::SchedOptions
cropheOptions()
{
    sched::SchedOptions opt;
    opt.crossOpDataflow = true;
    opt.nttDecomp = true;
    opt.maxGroupOps = 8;
    return opt;
}

/** Fresh scratch directory under the test temp dir. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "crophe_" + name;
    fs::remove_all(dir);
    return dir;
}

PlanKey
key(u64 a, u64 b = 2, u64 c = 3)
{
    PlanKey k;
    k.graphHash = a;
    k.hwDigest = b;
    k.optDigest = c;
    return k;
}

TEST(PlanCache, MemoryTierHitsAndMisses)
{
    PlanCache cache;
    std::vector<u8> out;
    EXPECT_FALSE(cache.lookup(key(1), out));
    cache.insert(key(1), {10, 20, 30});
    ASSERT_TRUE(cache.lookup(key(1), out));
    EXPECT_EQ(out, (std::vector<u8>{10, 20, 30}));
    // Same graph hash under a different hw digest is a different plan.
    EXPECT_FALSE(cache.lookup(key(1, 99), out));

    PlanCacheStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.diskWrites, 0u);  // memory-only cache
}

TEST(PlanCache, LruEvictsOldestEntry)
{
    PlanCache cache("", /*max_entries=*/2);
    cache.insert(key(1), {1});
    cache.insert(key(2), {2});
    std::vector<u8> out;
    ASSERT_TRUE(cache.lookup(key(1), out));  // 1 is now most recent
    cache.insert(key(3), {3});               // evicts 2

    EXPECT_TRUE(cache.lookup(key(1), out));
    EXPECT_FALSE(cache.lookup(key(2), out));
    EXPECT_TRUE(cache.lookup(key(3), out));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCache, DiskTierSurvivesProcessRestart)
{
    std::string dir = scratchDir("plan_disk");
    {
        PlanCache cache(dir);
        cache.insert(key(7), {4, 5, 6});
        EXPECT_EQ(cache.stats().diskWrites, 1u);
    }
    // A fresh cache (empty memory tier) must serve the entry from disk and
    // promote it.
    PlanCache cache(dir);
    std::vector<u8> out;
    ASSERT_TRUE(cache.lookup(key(7), out));
    EXPECT_EQ(out, (std::vector<u8>{4, 5, 6}));
    EXPECT_EQ(cache.stats().diskHits, 1u);
    // Second lookup is a memory hit: no second disk read.
    ASSERT_TRUE(cache.lookup(key(7), out));
    EXPECT_EQ(cache.stats().diskHits, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCache, TwoThreadsInsertingOneKeyLeaveOneValidEntry)
{
    // Two threads of one process, each with its own cache over one
    // directory (one cache serializes its writes under its lock), miss
    // the same key and both write it. Each writer needs its own temp
    // file, or one thread's rename can publish a file the other is still
    // writing and the other's rename then fails.
    std::string dir = scratchDir("plan_two_writers");
    const std::vector<u8> payload(1 << 16, 0x5a);
    const int kInserts = 200;
    PlanCache c1(dir), c2(dir);
    auto writer = [&](PlanCache &cache) {
        for (int i = 0; i < kInserts; ++i)
            cache.insert(key(11), payload);
    };
    std::thread t1(writer, std::ref(c1));
    std::thread t2(writer, std::ref(c2));
    t1.join();
    t2.join();
    EXPECT_EQ(c1.stats().diskWrites, u64(kInserts));
    EXPECT_EQ(c2.stats().diskWrites, u64(kInserts));

    // Exactly the entry is left: no temp file outlived its rename.
    u64 files = 0;
    for (const auto &e : fs::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".plan") << e.path();
        ++files;
    }
    EXPECT_EQ(files, 1u);
    PlanCache fresh(dir);
    std::vector<u8> out;
    ASSERT_TRUE(fresh.lookup(key(11), out));
    EXPECT_EQ(out, payload);
    EXPECT_EQ(fresh.stats().diskRejects, 0u);
}

TEST(PlanCache, CorruptDiskEntriesAreRejectedNotReturned)
{
    std::string dir = scratchDir("plan_corrupt");
    {
        PlanCache cache(dir);
        cache.insert(key(7), {4, 5, 6, 7, 8});
    }
    ASSERT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1);
    fs::path file = fs::directory_iterator(dir)->path();

    auto readAll = [&file] {
        std::ifstream is(file, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(is),
                                 std::istreambuf_iterator<char>());
    };
    auto writeAll = [&file](const std::vector<char> &bytes) {
        std::ofstream os(file, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };
    const std::vector<char> good = readAll();
    std::vector<u8> out;

    // Flipped payload byte: checksum mismatch.
    std::vector<char> bad = good;
    bad[bad.size() - 9] ^= 0x5a;
    writeAll(bad);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
        EXPECT_EQ(cache.stats().misses, 1u);
    }

    // Truncated file.
    writeAll(std::vector<char>(good.begin(), good.end() - 3));
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
    }

    // Stale format version (bytes 4..8 after the magic).
    bad = good;
    bad[4] ^= 0x7f;
    writeAll(bad);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(7), out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
    }

    // Key echo from some other plan (simulates a hash-collision file).
    {
        PlanCache seed2(dir);
        seed2.insert(key(8), {9});
    }
    fs::path other;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path() != file)
            other = e.path();
    ASSERT_FALSE(other.empty());
    writeAll(good);
    fs::copy_file(file, other, fs::copy_options::overwrite_existing);
    {
        PlanCache cache(dir);
        EXPECT_FALSE(cache.lookup(key(8), out));
        EXPECT_EQ(cache.stats().diskRejects, 1u);
        // The untouched entry still loads fine.
        EXPECT_TRUE(cache.lookup(key(7), out));
    }
}

TEST(PlanCache, DirFromEnv)
{
    ::setenv("CROPHE_PLAN_CACHE", "/tmp/crophe-env-dir", 1);
    EXPECT_EQ(PlanCache::dirFromEnv(), "/tmp/crophe-env-dir");
    ::unsetenv("CROPHE_PLAN_CACHE");
    EXPECT_EQ(PlanCache::dirFromEnv(), "");
}

/**
 * The bit-identity contract (DESIGN.md §8): a cache-hit schedule and a
 * pruned search must be byte-equal to a cold full search, for real
 * workloads, at any thread count.
 */
class PlanIdentity : public testing::TestWithParam<u32>
{
};

TEST_P(PlanIdentity, CacheHitMatchesColdSearchByteForByte)
{
    ThreadPool::setGlobalThreads(GetParam());
    auto cfg = hw::configCrophe64();
    for (const char *name : {"bootstrap", "resnet20"}) {
        WorkloadOptions wopt;
        wopt.rotMode = RotMode::MinKs;
        graph::Workload w =
            graph::buildWorkload(name, graph::paramsArk(), wopt);

        sched::WorkloadResult cold =
            sched::scheduleWorkload(w, cfg, cropheOptions());

        PlanCache cache;
        sched::SchedOptions opt = cropheOptions();
        opt.planCache = &cache;
        sched::WorkloadResult fill = sched::scheduleWorkload(w, cfg, opt);
        sched::WorkloadResult warm = sched::scheduleWorkload(w, cfg, opt);

        EXPECT_GT(cache.stats().hits, 0u) << name;
        EXPECT_EQ(workloadResultBytes(fill), workloadResultBytes(cold))
            << name << " @ " << GetParam() << " threads";
        EXPECT_EQ(workloadResultBytes(warm), workloadResultBytes(cold))
            << name << " @ " << GetParam() << " threads";
    }
}

TEST_P(PlanIdentity, PrunedSearchMatchesFullSearchByteForByte)
{
    ThreadPool::setGlobalThreads(GetParam());
    auto cfg = hw::configCrophe64();
    for (const char *name : {"bootstrap", "resnet20"}) {
        WorkloadOptions wopt;
        wopt.rotMode = RotMode::MinKs;
        graph::Workload w =
            graph::buildWorkload(name, graph::paramsArk(), wopt);

        sched::SchedOptions full = cropheOptions();
        full.pruneSearch = false;
        sched::SchedOptions pruned = cropheOptions();
        pruned.pruneSearch = true;

        sched::WorkloadResult a = sched::scheduleWorkload(w, cfg, full);
        sched::WorkloadResult b = sched::scheduleWorkload(w, cfg, pruned);
        EXPECT_EQ(workloadResultBytes(a), workloadResultBytes(b))
            << name << " @ " << GetParam() << " threads";
    }
}

TEST_P(PlanIdentity, DiskWarmScheduleMatchesColdSchedule)
{
    ThreadPool::setGlobalThreads(GetParam());
    // Parameterizations run concurrently under ctest -j; keep their disk
    // tiers disjoint.
    std::string dir =
        scratchDir("plan_sched_disk_t" + std::to_string(GetParam()));
    auto cfg = hw::configCrophe64();
    graph::Graph g = graph::buildHMult(graph::paramsArk(), 15);

    sched::Schedule cold = sched::scheduleGraph(g, cfg, cropheOptions());
    {
        PlanCache cache(dir);
        sched::SchedOptions opt = cropheOptions();
        opt.planCache = &cache;
        (void)sched::scheduleGraph(g, cfg, opt);
        EXPECT_GT(cache.stats().diskWrites, 0u);
    }
    PlanCache cache(dir);
    sched::SchedOptions opt = cropheOptions();
    opt.planCache = &cache;
    sched::Schedule warm = sched::scheduleGraph(g, cfg, opt);
    EXPECT_GT(cache.stats().diskHits, 0u);
    EXPECT_EQ(scheduleBytes(warm), scheduleBytes(cold));
}

INSTANTIATE_TEST_SUITE_P(Threads, PlanIdentity, testing::Values(1u, 8u),
                         [](const auto &info) {
                             return "threads" +
                                    std::to_string(info.param);
                         });

}  // namespace
}  // namespace crophe::plan
