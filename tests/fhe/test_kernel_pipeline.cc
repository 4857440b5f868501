/**
 * @file
 * Round-2 kernel-layer tests (DESIGN.md §13): batched NTT entry points
 * vs the per-polynomial kernels, the fused iNTT→BConv→NTT key-switch
 * pipeline vs the unfused seed flow, autotuner persistence, the typed
 * Backend enum, and the scratch-arena telemetry hooks. Suites are named
 * with the Kernel/ScratchArena prefixes so the CI sanitizer job's
 * gtest filter picks them up.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/ckks.h"
#include "fhe/kernels/autotune.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "telemetry/arena_stats.h"
#include "telemetry/stats_registry.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

namespace fs = std::filesystem;
using namespace test;

// ---------------------------------------------------------------------------
// Batched NTT: any tile width, any batch size, any backend must be
// bit-identical to looping the single-polynomial kernel.
// ---------------------------------------------------------------------------

TEST(KernelBatchedNtt, MatchesPerPolyAcrossBackendsCountsAndTiles)
{
    Rng rng(7101);
    for (u64 n : {u64(1) << 10, u64(1) << 12}) {
        u64 q = generateNttPrimes(50, n, 1)[0];
        Modulus mod(q);
        NttTables tables(n, mod);
        kernels::NttView fwd = tables.forwardView();
        kernels::NttView inv = tables.inverseView();

        for (u64 count : {u64(1), u64(2), u64(3), u64(5), u64(8)}) {
            std::vector<std::vector<u64>> input(count);
            for (auto &poly : input) {
                poly.resize(n);
                for (auto &x : poly)
                    x = rng.nextBounded(q);
            }

            for (kernels::Backend b : kernels::availableBackends()) {
                const kernels::KernelTable &kt = *kernels::tableFor(b);

                // Per-polynomial reference on this backend.
                std::vector<std::vector<u64>> ref = input;
                for (auto &poly : ref)
                    kt.fwdNtt(poly.data(), fwd);

                for (u64 tile : {u64(0), u64(1), u64(2), u64(3), u64(8)}) {
                    std::vector<std::vector<u64>> got = input;
                    std::vector<u64 *> rows(count);
                    for (u64 i = 0; i < count; ++i)
                        rows[i] = got[i].data();
                    kernels::fwdNttBatched(kt, rows.data(), count, fwd,
                                           tile);
                    EXPECT_EQ(got, ref)
                        << kt.name << " fwd n=" << n << " count=" << count
                        << " tile=" << tile;
                    kernels::invNttBatched(kt, rows.data(), count, inv,
                                           tile);
                    EXPECT_EQ(got, input)
                        << kt.name << " inv n=" << n << " count=" << count
                        << " tile=" << tile;
                }
            }
        }
    }
}

TEST(KernelBatchedNtt, NullBatchedEntryFallsBackToPerPolyLoop)
{
    const u64 n = 1 << 10;
    u64 q = generateNttPrimes(50, n, 1)[0];
    Modulus mod(q);
    NttTables tables(n, mod);
    kernels::NttView fwd = tables.forwardView();
    kernels::NttView inv = tables.inverseView();

    // A table without batched entries must still work through the
    // helpers — this is the capability/fallback contract that lets a
    // backend ship without batched kernels.
    kernels::KernelTable kt = kernels::scalarTable();
    kt.fwdNttBatch = nullptr;
    kt.invNttBatch = nullptr;

    Rng rng(7102);
    std::vector<std::vector<u64>> input(4);
    for (auto &poly : input) {
        poly.resize(n);
        for (auto &x : poly)
            x = rng.nextBounded(q);
    }
    std::vector<std::vector<u64>> ref = input;
    for (auto &poly : ref)
        kernels::scalarTable().fwdNtt(poly.data(), fwd);

    std::vector<std::vector<u64>> got = input;
    std::vector<u64 *> rows;
    for (auto &poly : got)
        rows.push_back(poly.data());
    kernels::fwdNttBatched(kt, rows.data(), rows.size(), fwd);
    EXPECT_EQ(got, ref);
    kernels::invNttBatched(kt, rows.data(), rows.size(), inv);
    EXPECT_EQ(got, input);
}

TEST(KernelBatchedNtt, NttTablesBatchedWrapperRoundTrips)
{
    BackendScope backend_scope;
    const u64 n = 1 << 11;
    u64 q = generateNttPrimes(50, n, 1)[0];
    Modulus mod(q);
    NttTables tables(n, mod);

    Rng rng(7103);
    std::vector<std::vector<u64>> input(4);
    for (auto &poly : input) {
        poly.resize(n);
        for (auto &x : poly)
            x = rng.nextBounded(q);
    }
    // Reference via the single-poly public entry point.
    std::vector<std::vector<u64>> ref = input;
    for (auto &poly : ref)
        tables.forward(poly);

    for (kernels::Backend b : kernels::availableBackends()) {
        kernels::setBackend(b);
        std::vector<std::vector<u64>> got = input;
        std::vector<u64 *> rows;
        for (auto &poly : got)
            rows.push_back(poly.data());
        tables.forwardBatched(rows.data(), rows.size());
        EXPECT_EQ(got, ref) << kernels::backendName(b);
        tables.inverseBatched(rows.data(), rows.size());
        EXPECT_EQ(got, input) << kernels::backendName(b);
    }
}

// ---------------------------------------------------------------------------
// Fused iNTT→BConv→NTT pipeline vs the unfused seed flow.
// ---------------------------------------------------------------------------

TEST(KernelFusedPipeline, FusedModUpMatchesUnfusedAcrossBackendsAndDigits)
{
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    Rng rng(7201);
    for (u32 level : {u32(1), ctx.maxLevel()}) {
        RnsPoly d_coeff = randomPoly(ctx, ctx.qBasis(level), rng, Rep::Coeff);
        RnsPoly d_eval = d_coeff;
        d_eval.toEval();
        for (u32 digit = 0; digit < ctx.digitCount(level); ++digit) {
            RnsPoly want = modUpDigit(ctx, d_coeff, digit, level);
            want.toEval();
            for (kernels::Backend b : kernels::availableBackends()) {
                kernels::setBackend(b);
                RnsPoly got =
                    fusedModUpEval(ctx, d_eval, d_coeff, digit, level);
                expectPolysEqual(got, want, kernels::backendName(b));
            }
        }
    }
}

TEST(KernelFusedPipeline, ModDownPairMatchesUnfusedAcrossBackends)
{
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    Rng rng(7202);
    for (u32 level : {u32(0), u32(2), ctx.maxLevel()}) {
        RnsPoly b_eval = randomPoly(ctx, ctx.qpBasis(level), rng, Rep::Eval);
        RnsPoly a_eval = randomPoly(ctx, ctx.qpBasis(level), rng, Rep::Eval);

        // Unfused seed flow: iNTT every limb, ModDown in coefficient
        // space, NTT everything back.
        auto unfused = [&](const RnsPoly &p) {
            RnsPoly c = p;
            c.toCoeff();
            RnsPoly down = modDown(ctx, c, level);
            down.toEval();
            return down;
        };
        RnsPoly want_b = unfused(b_eval);
        RnsPoly want_a = unfused(a_eval);

        for (kernels::Backend b : kernels::availableBackends()) {
            kernels::setBackend(b);
            auto [got_b, got_a] = modDownEvalPair(ctx, b_eval, a_eval, level);
            expectPolysEqual(got_b, want_b, kernels::backendName(b));
            expectPolysEqual(got_a, want_a, kernels::backendName(b));
        }
    }
}

TEST(KernelFusedPipeline, KeySwitchMatchesUnfusedAcrossBackendsAndThreads)
{
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    KswKey rk = keygen.makeRotationKey(1);
    Evaluator eval(ctx, 7);

    Rng rng(7203);
    const u32 level = ctx.maxLevel();
    RnsPoly d = randomPoly(ctx, ctx.qBasis(level), rng, Rep::Eval);

    kernels::setBackend(kernels::Backend::Scalar);
    ThreadPool::setGlobalThreads(1);
    auto [want_b, want_a] = eval.keySwitchUnfused(d, level, rk);

    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : kernels::availableBackends()) {
            kernels::setBackend(b);
            auto [got_b, got_a] = eval.keySwitch(d, level, rk);
            expectPolysEqual(got_b, want_b, kernels::backendName(b));
            expectPolysEqual(got_a, want_a, kernels::backendName(b));
            auto [ub, ua] = eval.keySwitchUnfused(d, level, rk);
            expectPolysEqual(ub, want_b, kernels::backendName(b));
            expectPolysEqual(ua, want_a, kernels::backendName(b));
        }
    }
    ThreadPool::setGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Autotuner persistence: round-trips, rejects anything suspect, and a
// bad table can only ever cost speed — never correctness (the result
// tests above cover every tile width).
// ---------------------------------------------------------------------------

std::string
freshDir(const char *name)
{
    std::string dir = testing::TempDir() + "crophe_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(KernelAutotune, PersistsAndReloadsTable)
{
    std::string dir = freshDir("autotune_rt");
    u32 tile = 0;
    {
        kernels::Autotuner tuner(dir);
        tile = tuner.batchTile(256, 2, kernels::Backend::Scalar);
        EXPECT_GE(tile, 1u);
        EXPECT_LE(tile, 8u);
        EXPECT_EQ(tuner.stats().tuned, 1u);
        EXPECT_EQ(tuner.stats().diskWrites, 1u);
        // Second query is memoized, not re-measured.
        EXPECT_EQ(tuner.batchTile(256, 2, kernels::Backend::Scalar), tile);
        EXPECT_EQ(tuner.stats().memoHits, 1u);
        EXPECT_EQ(tuner.stats().tuned, 1u);
    }
    EXPECT_TRUE(fs::exists(dir + "/autotune_ntt.tbl"));

    // A new instance adopts the persisted entry without re-tuning and
    // returns the identical tile.
    kernels::Autotuner warm(dir);
    EXPECT_GE(warm.stats().diskLoaded, 1u);
    EXPECT_EQ(warm.batchTile(256, 2, kernels::Backend::Scalar), tile);
    EXPECT_EQ(warm.stats().tuned, 0u);
}

TEST(KernelAutotune, CorruptTableIsRejectedAndRetuned)
{
    std::string dir = freshDir("autotune_corrupt");
    {
        std::ofstream os(dir + "/autotune_ntt.tbl");
        os << "crophe-ntt-autotune 999\ndeadbeef\nnot a real entry\n";
    }
    kernels::Autotuner tuner(dir);
    EXPECT_EQ(tuner.stats().diskRejects, 1u);
    EXPECT_EQ(tuner.stats().diskLoaded, 0u);
    u32 tile = tuner.batchTile(256, 2, kernels::Backend::Scalar);
    EXPECT_GE(tile, 1u);
    EXPECT_LE(tile, 8u);
    EXPECT_EQ(tuner.stats().tuned, 1u);
    // The rewritten table is now valid again.
    kernels::Autotuner warm(dir);
    EXPECT_GE(warm.stats().diskLoaded, 1u);
}

TEST(KernelAutotune, TruncatedTableIsRejectedAndRetuned)
{
    std::string dir = freshDir("autotune_trunc");
    {
        kernels::Autotuner tuner(dir);
        tuner.batchTile(256, 2, kernels::Backend::Scalar);
    }
    // Chop the checksum line off the valid table.
    std::string path = dir + "/autotune_ntt.tbl";
    std::ifstream is(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    is.close();
    ASSERT_GE(lines.size(), 2u);
    {
        std::ofstream os(path);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i)
            os << lines[i] << "\n";
    }
    kernels::Autotuner tuner(dir);
    EXPECT_EQ(tuner.stats().diskRejects, 1u);
    EXPECT_EQ(tuner.stats().diskLoaded, 0u);
}

TEST(KernelAutotune, EmptyDirMeansInMemoryOnly)
{
    kernels::Autotuner tuner("");
    u32 tile = tuner.batchTile(1 << 10, 8, kernels::Backend::Scalar);
    EXPECT_GE(tile, 1u);
    EXPECT_LE(tile, 8u);
    EXPECT_EQ(tuner.stats().tuned, 1u);
    EXPECT_EQ(tuner.stats().diskWrites, 0u);
}

TEST(KernelAutotune, SingleLimbNeverTunes)
{
    kernels::Autotuner tuner("");
    EXPECT_EQ(tuner.batchTile(1 << 12, 1, kernels::Backend::Scalar), 1u);
    EXPECT_EQ(tuner.stats().tuned, 0u);
}

// ---------------------------------------------------------------------------
// Typed backend selection.
// ---------------------------------------------------------------------------

TEST(KernelBackendEnum, ParseAcceptsKnownNamesAndThrowsOnUnknown)
{
    EXPECT_EQ(kernels::parseBackend("scalar"), kernels::Backend::Scalar);
    EXPECT_EQ(kernels::parseBackend("avx2"), kernels::Backend::Avx2);
    EXPECT_EQ(kernels::parseBackend("avx512"), kernels::Backend::Avx512);
    EXPECT_EQ(kernels::parseBackend("avx512ifma"),
              kernels::Backend::Avx512Ifma);
    // "auto" resolves to the most preferred backend runnable on this host.
    EXPECT_TRUE(kernels::available(kernels::parseBackend("auto")));
    EXPECT_EQ(kernels::parseBackend("auto"),
              kernels::availableBackends().back());
    EXPECT_THROW(kernels::parseBackend("sse9"), RecoverableError);
    EXPECT_THROW(kernels::parseBackend(""), RecoverableError);
    EXPECT_THROW(kernels::parseBackend("AVX2"), RecoverableError);
}

TEST(KernelBackendEnum, NamesRoundTripThroughParse)
{
    for (kernels::Backend b :
         {kernels::Backend::Scalar, kernels::Backend::Avx2,
          kernels::Backend::Avx512, kernels::Backend::Avx512Ifma})
        EXPECT_EQ(kernels::parseBackend(kernels::backendName(b)), b);
}

// ---------------------------------------------------------------------------
// Scratch-arena telemetry.
// ---------------------------------------------------------------------------

TEST(ScratchArenaStats, RegisterIsNullGated)
{
    telemetry::registerArenaStats(nullptr);  // must be a no-op, not a crash
}

TEST(ScratchArenaStats, PeakAndRewindsReportThroughRegistry)
{
    u64 rewinds_before = ScratchArena::globalRewinds();
    {
        ScratchArena::Scope scope;
        u64 *p = ScratchArena::local().alloc<u64>(4096);
        p[0] = 1;  // keep the allocation observable
    }
    telemetry::StatsRegistry registry;
    telemetry::registerArenaStats(&registry);
    ASSERT_TRUE(registry.has("fhe.arena.peakBytes"));
    ASSERT_TRUE(registry.has("fhe.arena.rewinds"));
    EXPECT_GE(registry.value("fhe.arena.peakBytes"),
              static_cast<double>(4096 * sizeof(u64)));
    EXPECT_GE(registry.value("fhe.arena.rewinds"),
              static_cast<double>(rewinds_before + 1));
}

}  // namespace
}  // namespace crophe::fhe
