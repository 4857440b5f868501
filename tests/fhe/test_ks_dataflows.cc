/**
 * @file
 * Differential tests for the key switch and the triple-hoisted BSGS
 * strategy (DESIGN.md §13, §15): keySwitch(), which is composed from the
 * hoisting primitives, must be bit-identical to the unfused oracle
 * across levels, digit counts, backends and thread counts, and both must
 * land on a pinned golden limb-trace hash; hoistedRotate() must match an
 * unfused-primitive oracle bit-for-bit and decrypt like rotate(); the
 * triple-hoisted and Hybrid matvecs must match same-math oracles
 * bit-for-bit and decrypt to the reference within rounding noise; and
 * babySteps() must perform exactly the Decomp/ModUps babyStepCost()
 * charges; every strategy's matvec and baby steps must equal the
 * materializing flow (eager ψ digit copies, mulPlain/add per diagonal)
 * bit for bit; and a seeded encode/decode hash stays pinned. Suites
 * carry the Kernel prefix so the CI sanitizer job's gtest filter picks
 * them up.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/bsgs.h"
#include "fhe/ckks.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using namespace test;

// ---------------------------------------------------------------------------
// keySwitch bit-identical to the unfused oracle, across levels (and with
// them digit counts β = 1…ceil((L+1)/α)), both digit layouts (α = 2 and
// α = 1), every backend, and 1/2/8 threads.
// ---------------------------------------------------------------------------

TEST(KernelKsDataflow, KeySwitchMatchesUnfusedAcrossLevelsBackendsThreads)
{
    BackendScope backend_scope;
    static FheContext ctx_alpha1(smallParamsAlpha1());
    const FheContext *contexts[] = {&smallContext(), &ctx_alpha1};
    Rng rng(9002);

    for (const FheContext *ctx : contexts) {
        KeyGenerator keygen(*ctx, 42);
        KswKey rk = keygen.makeRotationKey(1);
        Evaluator eval(*ctx, 7);

        for (u32 level : {u32(1), ctx->maxLevel()}) {
            RnsPoly d = randomPoly(*ctx, ctx->qBasis(level), rng, Rep::Eval);

            kernels::setBackend(kernels::Backend::Scalar);
            ThreadPool::setGlobalThreads(1);
            auto [want_b, want_a] = eval.keySwitchUnfused(d, level, rk);

            for (u32 threads : {1u, 2u, 8u}) {
                ThreadPool::setGlobalThreads(threads);
                for (kernels::Backend b : kernels::availableBackends()) {
                    kernels::setBackend(b);
                    auto [got_b, got_a] = eval.keySwitch(d, level, rk);
                    expectPolysEqual(got_b, want_b, "keySwitch b");
                    expectPolysEqual(got_a, want_a, "keySwitch a");
                }
            }
            ThreadPool::setGlobalThreads(0);
        }
    }
}

// ---------------------------------------------------------------------------
// Hoisted rotate.
// ---------------------------------------------------------------------------

/**
 * Hoisted-rotate oracle built from the unfused seed primitives: ModUp
 * every digit via modUpDigit, permute the digits, inner product with
 * restricted key copies, coefficient-domain ModDown. Same dataflow as
 * Evaluator::hoistedRotate, independently coded path.
 *
 * Note hoisting is NOT bit-identical to rotate(): ψ carries sign flips,
 * and the exact BConv of a canonical representative is not odd-symmetric
 * — permuting after ModUp shifts the extended limbs by multiples of the
 * digit modulus versus ModUp-after-ψ. That lift ambiguity is absorbed by
 * key-switch noise (standard hoisting), so the check is oracle
 * bit-identity plus a decrypt-level comparison against rotate().
 */
Ciphertext
hoistedRotateOracle(const FheContext &ctx, const Ciphertext &ct, i64 r,
                    const KswKey &rk)
{
    const u32 level = ct.level;
    const u32 beta = ctx.digitCount(level);
    auto qp = ctx.qpBasis(level);
    const u64 g = galoisElementForRotation(r, ctx.n());

    RnsPoly a_coeff = ct.a;
    a_coeff.toCoeff();
    RnsPoly acc_b(ctx, qp, Rep::Eval);
    RnsPoly acc_a(ctx, qp, Rep::Eval);
    for (u32 j = 0; j < beta; ++j) {
        RnsPoly up = modUpDigit(ctx, a_coeff, j, level);
        up.toEval();
        RnsPoly rot = applyAutomorphism(up, g);
        RnsPoly kb = rk.b[j].restrictedTo(qp);
        RnsPoly ka = rk.a[j].restrictedTo(qp);
        kb.mulEwInplace(rot);
        ka.mulEwInplace(rot);
        acc_b.addInplace(kb);
        acc_a.addInplace(ka);
    }
    acc_b.toCoeff();
    acc_a.toCoeff();
    RnsPoly ks_b = modDown(ctx, acc_b, level);
    RnsPoly ks_a = modDown(ctx, acc_a, level);
    ks_b.toEval();
    ks_a.toEval();

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

TEST(KernelHoisting, HoistedRotateMatchesOracleAndDecryptsLikeRotate)
{
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    PublicKey pk = keygen.makePublicKey();
    SecretKey sk = keygen.secretKey();
    Evaluator eval(ctx, 7);

    const u64 slots = ctx.n() / 2;
    std::vector<double> v(slots);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 13) * 0.1 - 0.5;

    for (u32 level : {u32(2), ctx.maxLevel()}) {
        Ciphertext ct =
            eval.encrypt(eval.encoder().encodeReal(v, level), pk);
        auto digits = eval.hoistedDecompModUp(ct.a, ct.level);
        for (i64 r : {i64(1), i64(3), i64(7)}) {
            KswKey rk = keygen.makeRotationKey(r);
            Ciphertext want = hoistedRotateOracle(ctx, ct, r, rk);
            for (kernels::Backend b : kernels::availableBackends()) {
                kernels::setBackend(b);
                Ciphertext got = eval.hoistedRotate(ct, digits, r, rk);
                ASSERT_EQ(got.level, want.level);
                ASSERT_EQ(got.scale, want.scale);
                expectPolysEqual(got.b, want.b, "hoistedRotate b");
                expectPolysEqual(got.a, want.a, "hoistedRotate a");
            }
            // Functional equivalence with the eager rotation.
            auto dh = eval.encoder().decode(eval.decrypt(want, sk));
            auto de = eval.encoder().decode(
                eval.decrypt(eval.rotate(ct, r, rk), sk));
            for (u64 i = 0; i < slots; ++i)
                EXPECT_NEAR(dh[i].real(), de[i].real(), 2e-2)
                    << "level " << level << " r " << r << " slot " << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Triple-hoisted BSGS.
// ---------------------------------------------------------------------------

struct BsgsState
{
    const FheContext &ctx;
    KeyGenerator keygen;
    PublicKey pk;
    Evaluator eval;

    BsgsState()
        : ctx(smallContext()), keygen(ctx, 31415), pk(keygen.makePublicKey()),
          eval(ctx, 13)
    {
    }

    BsgsKeys
    keysFor(u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb)
    {
        BsgsKeys keys;
        for (i64 r : requiredRotations(n1, n2, strategy, r_hyb))
            keys.rot.emplace(r, keygen.makeRotationKey(r));
        return keys;
    }
};

BsgsState &
bsgsState()
{
    static BsgsState s;
    return s;
}

TEST(KernelTripleHoistedBsgs, RequiredRotationsAndCostMatchHoisting)
{
    EXPECT_EQ(requiredRotations(4, 2, RotStrategy::TripleHoisted, 0),
              requiredRotations(4, 2, RotStrategy::Hoisting, 0));
    auto cost = babyStepCost(8, RotStrategy::TripleHoisted, 0);
    EXPECT_EQ(cost.modUpDown, 1u);
    EXPECT_EQ(cost.distinctEvk, 7u);
}

TEST(KernelTripleHoistedBsgs, BabyStepsMatchOracleAndDecryptLikeHoisting)
{
    auto &s = bsgsState();
    const u32 n1 = 4;
    const u64 slots = s.ctx.n() / 2;
    std::vector<double> v(slots);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 11) * 0.2 - 1.0;
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(v, 3), s.pk);

    auto keys = s.keysFor(n1, 1, RotStrategy::Hoisting, 0);
    auto eager = babySteps(s.eval, ct, n1, RotStrategy::Hoisting, 0, keys);
    auto got =
        babySteps(s.eval, ct, n1, RotStrategy::TripleHoisted, 0, keys);
    ASSERT_EQ(got.size(), eager.size());
    for (u32 i = 1; i < n1; ++i) {
        // Bit-for-bit against the unfused-primitive oracle...
        Ciphertext want = hoistedRotateOracle(s.ctx, ct, i, keys.rot.at(i));
        expectPolysEqual(got[i].b, want.b, "baby b");
        expectPolysEqual(got[i].a, want.a, "baby a");
        // ...and decrypt-equivalent to the eager rotation.
        auto dh = s.eval.encoder().decode(
            s.eval.decrypt(got[i], s.keygen.secretKey()));
        auto de = s.eval.encoder().decode(
            s.eval.decrypt(eager[i], s.keygen.secretKey()));
        for (u64 k = 0; k < slots; ++k)
            EXPECT_NEAR(dh[k].real(), de[k].real(), 2e-2)
                << "i=" << i << " slot " << k;
    }
}

/**
 * Same-math oracle for the triple-hoisted matvec, built from the unfused
 * seed primitives (modUpDigit + restrictedTo key copies + coefficient-
 * domain modDown) instead of the fused pipeline: same deferred-ModDown
 * dataflow, independently coded path. Bit-for-bit agreement checks the
 * production path's fused kernels AND its accumulation order at once.
 */
Ciphertext
tripleHoistedOracle(BsgsState &s,
                    const std::vector<std::vector<double>> &diagonals,
                    const Ciphertext &ct, u32 n1, u32 n2, BsgsKeys &keys)
{
    const FheContext &ctx = s.ctx;
    const Encoder &enc = s.eval.encoder();
    const u64 slots = ctx.n() / 2;

    // Baby steps: unfused per-digit ModUp of ct.a, permute, inner
    // product with restricted key copies, coefficient-domain ModDown.
    const u32 level = ct.level;
    const u32 beta = ctx.digitCount(level);
    auto qp = ctx.qpBasis(level);
    RnsPoly a_coeff = ct.a;
    a_coeff.toCoeff();
    std::vector<RnsPoly> digits;
    for (u32 j = 0; j < beta; ++j) {
        RnsPoly up = modUpDigit(ctx, a_coeff, j, level);
        up.toEval();
        digits.push_back(std::move(up));
    }

    auto innerProd = [&](const std::vector<RnsPoly> &ds, const KswKey &key) {
        RnsPoly acc_b(ctx, qp, Rep::Eval);
        RnsPoly acc_a(ctx, qp, Rep::Eval);
        for (u32 j = 0; j < beta; ++j) {
            RnsPoly kb = key.b[j].restrictedTo(qp);
            RnsPoly ka = key.a[j].restrictedTo(qp);
            kb.mulEwInplace(ds[j]);
            ka.mulEwInplace(ds[j]);
            acc_b.addInplace(kb);
            acc_a.addInplace(ka);
        }
        return std::make_pair(std::move(acc_b), std::move(acc_a));
    };
    auto modDownPair = [&](const RnsPoly &b, const RnsPoly &a) {
        RnsPoly bc = b;
        bc.toCoeff();
        RnsPoly ac = a;
        ac.toCoeff();
        RnsPoly db = modDown(ctx, bc, level);
        RnsPoly da = modDown(ctx, ac, level);
        db.toEval();
        da.toEval();
        return std::make_pair(std::move(db), std::move(da));
    };

    std::vector<Ciphertext> cts(n1);
    cts[0] = ct;
    for (u32 i = 1; i < n1; ++i) {
        const u64 g = galoisElementForRotation(i, ctx.n());
        std::vector<RnsPoly> rot;
        for (const RnsPoly &d : digits)
            rot.push_back(applyAutomorphism(d, g));
        auto [ip_b, ip_a] = innerProd(rot, keys.rot.at(i));
        auto [ks_b, ks_a] = modDownPair(ip_b, ip_a);
        cts[i].level = ct.level;
        cts[i].scale = ct.scale;
        cts[i].b = applyAutomorphism(ct.b, g);
        cts[i].b.addInplace(ks_b);
        cts[i].a = std::move(ks_a);
    }

    // Giant steps with the single deferred ModDown.
    bool have_acc = false;
    RnsPoly acc_b, acc_a;
    bool have_out = false;
    Ciphertext out;
    auto rotateRight = [&](const std::vector<double> &vec, u64 amount) {
        std::vector<double> r(vec.size());
        amount %= vec.size();
        for (u64 i = 0; i < vec.size(); ++i)
            r[(i + amount) % vec.size()] = vec[i];
        return r;
    };
    for (u32 j = 0; j < n2; ++j) {
        bool have_r = false;
        Ciphertext r;
        for (u32 i = 0; i < n1; ++i) {
            u64 d = static_cast<u64>(n1) * j + i;
            auto diag = rotateRight(diagonals[d], static_cast<u64>(n1) * j);
            (void)slots;
            Plaintext pt = enc.encodeReal(diag, cts[i].level);
            Ciphertext term = s.eval.mulPlain(cts[i], pt);
            if (!have_r) {
                r = std::move(term);
                have_r = true;
            } else {
                r = s.eval.add(r, term);
            }
        }
        if (j > 0) {
            const i64 stride = static_cast<i64>(n1) * j;
            const u64 g = galoisElementForRotation(stride, ctx.n());
            RnsPoly ra_coeff = r.a;
            ra_coeff.toCoeff();
            std::vector<RnsPoly> gds;
            for (u32 k = 0; k < beta; ++k) {
                RnsPoly up = modUpDigit(ctx, ra_coeff, k, level);
                up.toEval();
                gds.push_back(applyAutomorphism(up, g));
            }
            auto [ip_b, ip_a] = innerProd(gds, keys.rot.at(stride));
            if (!have_acc) {
                acc_b = std::move(ip_b);
                acc_a = std::move(ip_a);
                have_acc = true;
            } else {
                acc_b.addInplace(ip_b);
                acc_a.addInplace(ip_a);
            }
            r.b = applyAutomorphism(r.b, g);
            r.a = RnsPoly(ctx, ctx.qBasis(r.level), Rep::Eval);
        }
        if (!have_out) {
            out = std::move(r);
            have_out = true;
        } else {
            out = s.eval.add(out, r);
        }
    }
    if (have_acc) {
        auto [md_b, md_a] = modDownPair(acc_b, acc_a);
        out.b.addInplace(md_b);
        out.a.addInplace(md_a);
    }
    return s.eval.rescale(out);
}

TEST(KernelTripleHoistedBsgs, MatVecMatchesSameMathOracleBitForBit)
{
    BackendScope backend_scope;
    auto &s = bsgsState();
    const u32 n1 = 2, n2 = 2;
    const u64 dim = n1 * n2;
    Rng rng(9004);

    std::vector<std::vector<double>> m(dim, std::vector<double>(dim));
    std::vector<double> x(dim);
    for (auto &row : m)
        for (auto &e : row)
            e = rng.nextDouble() * 2 - 1;
    for (auto &e : x)
        e = rng.nextDouble() * 2 - 1;

    const u64 slots = s.ctx.n() / 2;
    std::vector<double> x_tiled(slots);
    for (u64 i = 0; i < slots; ++i)
        x_tiled[i] = x[i % dim];
    auto diags = matrixDiagonals(m, slots);

    auto keys = s.keysFor(n1, n2, RotStrategy::TripleHoisted, 0);
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(x_tiled, 3), s.pk);

    Ciphertext want = tripleHoistedOracle(s, diags, ct, n1, n2, keys);
    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : kernels::availableBackends()) {
            kernels::setBackend(b);
            Ciphertext got = ptMatVecMult(s.eval, ct, diags, n1, n2,
                                          RotStrategy::TripleHoisted, 0,
                                          keys);
            expectPolysEqual(got.b, want.b, "triple-hoisted matvec b");
            expectPolysEqual(got.a, want.a, "triple-hoisted matvec a");
        }
    }
    ThreadPool::setGlobalThreads(0);

    // And the deferred-ModDown result still decrypts to M·x within the
    // usual CKKS tolerance (the deferral shifts each coefficient by at
    // most n2-1, far below the scale).
    auto expect = matVecRef(m, x);
    auto got_dec =
        s.eval.encoder().decode(s.eval.decrypt(want, s.keygen.secretKey()));
    for (u64 i = 0; i < dim; ++i)
        EXPECT_NEAR(got_dec[i].real(), expect[i], 5e-2) << "slot " << i;
}

// ---------------------------------------------------------------------------
// The library agrees with the model: babySteps performs exactly
// babyStepCost().modUpDown Decomp/ModUps, counted in NTT limb transforms.
// ---------------------------------------------------------------------------

TEST(KernelHoistedBabySteps, ModUpCountMatchesBabyStepCost)
{
    auto &s = bsgsState();
    const u32 level = 3;
    const u64 slots = s.ctx.n() / 2;
    std::vector<double> v(slots);
    for (u64 i = 0; i < v.size(); ++i)
        v[i] = (i % 7) * 0.1 - 0.3;
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(v, level), s.pk);

    // A superset of every key the sweep below needs.
    const u32 max_n1 = 8;
    BsgsKeys keys;
    for (i64 r = 1; r <= max_n1; ++r)
        keys.rot.emplace(r, s.keygen.makeRotationKey(r));

    // Transforms of one Decomp/ModUp and of one ModDown at this level;
    // an eager rotation is exactly one of each.
    u64 t0 = nttLimbTransforms();
    auto digits = s.eval.hoistedDecompModUp(ct.a, level);
    const u64 per_mod_up = nttLimbTransforms() - t0;
    auto [ip_b, ip_a] = s.eval.hoistedInnerProd(digits, keys.rot.at(1));
    t0 = nttLimbTransforms();
    modDownEvalPair(s.ctx, ip_b, ip_a, level);
    const u64 per_mod_down = nttLimbTransforms() - t0;
    ASSERT_GT(per_mod_up, 0u);
    ASSERT_GT(per_mod_down, 0u);
    t0 = nttLimbTransforms();
    s.eval.rotate(ct, 1, keys.rot.at(1));
    ASSERT_EQ(nttLimbTransforms() - t0, per_mod_up + per_mod_down);

    auto check = [&](u32 n1, RotStrategy st, u32 r_hyb) {
        const u64 before = nttLimbTransforms();
        babySteps(s.eval, ct, n1, st, r_hyb, keys);
        const u64 got = nttLimbTransforms() - before;
        const RotCost cost = babyStepCost(n1, st, r_hyb);
        EXPECT_EQ(got, cost.modUpDown * per_mod_up + (n1 - 1) * per_mod_down)
            << "n1=" << n1 << " strategy=" << static_cast<int>(st)
            << " r_hyb=" << r_hyb << " modeled ModUps=" << cost.modUpDown;
    };
    for (u32 n1 : {1u, 4u, 5u, 8u}) {
        check(n1, RotStrategy::MinKs, 1);
        check(n1, RotStrategy::Hoisting, 1);
        check(n1, RotStrategy::TripleHoisted, 1);
        for (u32 r = 1; r <= n1; ++r)
            check(n1, RotStrategy::Hybrid, r);
    }
    // The shape the encrypted-inference benchmark runs: 2 ModUps, not 7.
    EXPECT_EQ(babyStepCost(8, RotStrategy::Hybrid, 4).modUpDown, 2u);
    // A lone last coarse member rotates nothing and needs no ModUp.
    EXPECT_EQ(babyStepCost(5, RotStrategy::Hybrid, 4).modUpDown, 1u);
}

// ---------------------------------------------------------------------------
// Hybrid BSGS: hoisted fine and coarse steps.
// ---------------------------------------------------------------------------

/** Eager HRot from the unfused key switch (bit-identical to rotate()). */
Ciphertext
rotateOracle(const Evaluator &eval, const Ciphertext &ct, i64 r,
             const KswKey &rk)
{
    const u64 g = galoisElementForRotation(r, eval.context().n());
    auto [ks_b, ks_a] =
        eval.keySwitchUnfused(applyAutomorphism(ct.a, g), ct.level, rk);
    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

/**
 * Same-math oracle for the Hybrid matvec: each coarse ciphertext's fine
 * steps and next coarse step come from hoistedRotateOracle (one unfused
 * ModUp of that coarse ciphertext, permuted), the giant steps from the
 * unfused eager rotation.
 */
Ciphertext
hybridOracle(BsgsState &s, const std::vector<std::vector<double>> &diagonals,
             const Ciphertext &ct, u32 n1, u32 n2, u32 r_hyb,
             const BsgsKeys &keys)
{
    std::vector<Ciphertext> cts(n1);
    cts[0] = ct;
    for (u32 c = 0; c < n1; c += r_hyb) {
        for (u32 f = 1; f < r_hyb && c + f < n1; ++f)
            cts[c + f] =
                hoistedRotateOracle(s.ctx, cts[c], f, keys.rot.at(f));
        if (c + r_hyb < n1)
            cts[c + r_hyb] = hoistedRotateOracle(s.ctx, cts[c], r_hyb,
                                                 keys.rot.at(r_hyb));
    }

    const u64 slots = s.ctx.n() / 2;
    Ciphertext out;
    for (u32 j = 0; j < n2; ++j) {
        const u64 stride = static_cast<u64>(n1) * j;
        Ciphertext r;
        for (u32 i = 0; i < n1; ++i) {
            // Diagonal n1·j + i, rotated right by the giant-step stride.
            std::vector<double> diag(slots);
            for (u64 k = 0; k < slots; ++k)
                diag[(k + stride) % slots] = diagonals[stride + i][k];
            Ciphertext term = s.eval.mulPlain(
                cts[i], s.eval.encoder().encodeReal(diag, cts[i].level));
            r = i == 0 ? std::move(term) : s.eval.add(r, term);
        }
        if (j > 0)
            r = rotateOracle(s.eval, r, static_cast<i64>(stride),
                             keys.rot.at(static_cast<i64>(stride)));
        out = j == 0 ? std::move(r) : s.eval.add(out, r);
    }
    return s.eval.rescale(out);
}

TEST(KernelHybridBsgs, MatVecMatchesSameMathOracleAcrossBackendsAndThreads)
{
    BackendScope backend_scope;
    auto &s = bsgsState();
    const u32 n1 = 4, n2 = 2;
    const u64 dim = n1 * n2;
    Rng rng(9005);

    std::vector<std::vector<double>> m(dim, std::vector<double>(dim));
    std::vector<double> x(dim);
    for (auto &row : m)
        for (auto &e : row)
            e = rng.nextDouble() * 2 - 1;
    for (auto &e : x)
        e = rng.nextDouble() * 2 - 1;

    const u64 slots = s.ctx.n() / 2;
    std::vector<double> x_tiled(slots);
    for (u64 i = 0; i < slots; ++i)
        x_tiled[i] = x[i % dim];
    auto diags = matrixDiagonals(m, slots);
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(x_tiled, 3), s.pk);
    const auto expect = matVecRef(m, x);

    // r_hyb = 2: two coarse groups, each with a fine step; r_hyb = 3: a
    // full group, then a lone last coarse member.
    for (u32 r_hyb : {2u, 3u}) {
        auto keys = s.keysFor(n1, n2, RotStrategy::Hybrid, r_hyb);
        Ciphertext want = hybridOracle(s, diags, ct, n1, n2, r_hyb, keys);
        for (u32 threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            for (kernels::Backend b : kernels::availableBackends()) {
                kernels::setBackend(b);
                Ciphertext got = ptMatVecMult(s.eval, ct, diags, n1, n2,
                                              RotStrategy::Hybrid, r_hyb,
                                              keys);
                expectPolysEqual(got.b, want.b, "hybrid matvec b");
                expectPolysEqual(got.a, want.a, "hybrid matvec a");
            }
        }
        ThreadPool::setGlobalThreads(0);

        auto got_dec = s.eval.encoder().decode(
            s.eval.decrypt(want, s.keygen.secretKey()));
        for (u64 i = 0; i < dim; ++i)
            EXPECT_NEAR(got_dec[i].real(), expect[i], 5e-2)
                << "r_hyb " << r_hyb << " slot " << i;
    }
}

// ---------------------------------------------------------------------------
// Every strategy against the materializing flow ptMatVecMult replaced:
// hoisted digits permuted into eager ψ copies before the inner product,
// and the plaintext sum formed by mulPlain/add per diagonal.
// ---------------------------------------------------------------------------

Ciphertext
materializedHoistedRotate(const Evaluator &eval, const Ciphertext &ct,
                          const std::vector<RnsPoly> &digits, i64 r,
                          const KswKey &rk)
{
    const FheContext &ctx = eval.context();
    const u64 g = galoisElementForRotation(r, ctx.n());
    std::vector<RnsPoly> rotated;
    for (const RnsPoly &d : digits)
        rotated.push_back(applyAutomorphism(d, g));
    auto [ip_b, ip_a] = eval.hoistedInnerProd(rotated, rk);
    auto [ks_b, ks_a] = modDownEvalPair(ctx, ip_b, ip_a, ct.level);
    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

std::vector<Ciphertext>
materializedBabySteps(const Evaluator &eval, const Ciphertext &ct, u32 n1,
                      RotStrategy strategy, u32 r_hyb, const BsgsKeys &keys)
{
    std::vector<Ciphertext> out(n1);
    out[0] = ct;
    if (strategy == RotStrategy::MinKs) {
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.rotate(out[i - 1], 1, keys.rot.at(1));
        return out;
    }
    // Hoisting and TripleHoisted are one coarse group of stride n1.
    const u32 r = strategy == RotStrategy::Hybrid ? r_hyb : n1;
    for (u32 c = 0; c < n1; c += r) {
        if (c + r >= n1 && c + 1 >= n1)
            break;
        auto digits = eval.hoistedDecompModUp(out[c].a, out[c].level);
        for (u32 f = 1; f < r && c + f < n1; ++f)
            out[c + f] = materializedHoistedRotate(eval, out[c], digits, f,
                                                   keys.rot.at(f));
        if (c + r < n1)
            out[c + r] = materializedHoistedRotate(eval, out[c], digits, r,
                                                   keys.rot.at(r));
    }
    return out;
}

Ciphertext
materializedMatVec(const Evaluator &eval, const Ciphertext &ct,
                   const std::vector<std::vector<double>> &diagonals, u32 n1,
                   u32 n2, RotStrategy strategy, u32 r_hyb,
                   const BsgsKeys &keys)
{
    const FheContext &ctx = eval.context();
    const u64 slots = ctx.n() / 2;
    auto cts = materializedBabySteps(eval, ct, n1, strategy, r_hyb, keys);
    bool have_acc = false;
    RnsPoly acc_b, acc_a;
    Ciphertext out;
    for (u32 j = 0; j < n2; ++j) {
        const u64 stride = static_cast<u64>(n1) * j;
        Ciphertext r;
        for (u32 i = 0; i < n1; ++i) {
            std::vector<double> diag(slots);
            for (u64 k = 0; k < slots; ++k)
                diag[(k + stride) % slots] = diagonals[stride + i][k];
            Ciphertext term = eval.mulPlain(
                cts[i], eval.encoder().encodeReal(diag, cts[i].level));
            r = i == 0 ? std::move(term) : eval.add(r, term);
        }
        if (j > 0) {
            const KswKey &gk = keys.rot.at(static_cast<i64>(stride));
            if (strategy == RotStrategy::TripleHoisted) {
                const u64 g =
                    galoisElementForRotation(static_cast<i64>(stride), ctx.n());
                std::vector<RnsPoly> rotated;
                for (const RnsPoly &d : eval.hoistedDecompModUp(r.a, r.level))
                    rotated.push_back(applyAutomorphism(d, g));
                auto [ip_b, ip_a] = eval.hoistedInnerProd(rotated, gk);
                if (!have_acc) {
                    acc_b = std::move(ip_b);
                    acc_a = std::move(ip_a);
                    have_acc = true;
                } else {
                    acc_b.addInplace(ip_b);
                    acc_a.addInplace(ip_a);
                }
                r.b = applyAutomorphism(r.b, g);
                r.a = RnsPoly(ctx, ctx.qBasis(r.level), Rep::Eval);
            } else {
                r = eval.rotate(r, static_cast<i64>(stride), gk);
            }
        }
        out = j == 0 ? std::move(r) : eval.add(out, r);
    }
    if (have_acc) {
        auto [md_b, md_a] = modDownEvalPair(ctx, acc_b, acc_a, out.level);
        out.b.addInplace(md_b);
        out.a.addInplace(md_a);
    }
    return eval.rescale(out);
}

TEST(KernelBsgsDataflow, MatVecAndBabyStepsMatchMaterializedOracle)
{
    BackendScope backend_scope;
    auto &s = bsgsState();
    const u32 n1 = 4, n2 = 2;
    const u64 dim = n1 * n2;
    Rng rng(9006);

    std::vector<std::vector<double>> m(dim, std::vector<double>(dim));
    for (auto &row : m)
        for (auto &e : row)
            e = rng.nextDouble() * 2 - 1;
    const u64 slots = s.ctx.n() / 2;
    std::vector<double> x_tiled(slots);
    for (u64 i = 0; i < slots; ++i)
        x_tiled[i] = rng.nextDouble() * 2 - 1;
    auto diags = matrixDiagonals(m, slots);
    auto ct = s.eval.encrypt(s.eval.encoder().encodeReal(x_tiled, 3), s.pk);

    const struct
    {
        RotStrategy strategy;
        u32 rHyb;
    } kCases[] = {
        {RotStrategy::MinKs, 1},  {RotStrategy::Hoisting, 1},
        {RotStrategy::Hybrid, 2}, {RotStrategy::Hybrid, 3},
        {RotStrategy::Hybrid, 4}, {RotStrategy::TripleHoisted, 1},
    };
    for (const auto &c : kCases) {
        const int st = static_cast<int>(c.strategy);
        auto keys = s.keysFor(n1, n2, c.strategy, c.rHyb);
        kernels::setBackend(kernels::Backend::Scalar);
        ThreadPool::setGlobalThreads(1);
        const auto want_steps = materializedBabySteps(s.eval, ct, n1,
                                                      c.strategy, c.rHyb, keys);
        const Ciphertext want = materializedMatVec(s.eval, ct, diags, n1, n2,
                                                   c.strategy, c.rHyb, keys);
        for (u32 threads : {1u, 2u, 8u}) {
            ThreadPool::setGlobalThreads(threads);
            for (kernels::Backend b : kernels::availableBackends()) {
                kernels::setBackend(b);
                SCOPED_TRACE(testing::Message()
                             << "strategy " << st << " r_hyb " << c.rHyb
                             << " threads " << threads << " backend "
                             << kernels::backendName(b));
                auto steps =
                    babySteps(s.eval, ct, n1, c.strategy, c.rHyb, keys);
                ASSERT_EQ(steps.size(), want_steps.size());
                for (u32 i = 0; i < n1; ++i) {
                    expectPolysEqual(steps[i].b, want_steps[i].b, "baby b");
                    expectPolysEqual(steps[i].a, want_steps[i].a, "baby a");
                }
                Ciphertext got = ptMatVecMult(s.eval, ct, diags, n1, n2,
                                              c.strategy, c.rHyb, keys);
                EXPECT_EQ(got.level, want.level);
                EXPECT_EQ(got.scale, want.scale);
                expectPolysEqual(got.b, want.b, "matvec b");
                expectPolysEqual(got.a, want.a, "matvec a");
            }
        }
    }
    ThreadPool::setGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Encode/decode hash: pins the special FFT's twiddles and butterfly
// order, together with the CRT decode, on a seeded vector. The value was
// computed by the per-butterfly-index FFT this table-driven one replaced.
// It holds for the baseline x86-64 target (Release and RelWithDebInfo).
// Built with -march=native, the encoder's floating-point code lands on
// other low bits, the old FFT's as much as this one's, so the pin does
// not apply there.
// ---------------------------------------------------------------------------

TEST(KernelEncoding, EncodeDecodeHashIsPinned)
{
#ifdef __AVX__
    GTEST_SKIP() << "hash pinned for the baseline x86-64 target";
#endif
    BackendScope backend_scope;
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(4242);
    std::vector<double> v(ctx.n() / 2);
    for (auto &x : v)
        x = rng.nextDouble() * 2 - 1;
    for (kernels::Backend b : kernels::availableBackends()) {
        kernels::setBackend(b);
        Plaintext pt = enc.encodeReal(v, ctx.maxLevel());
        u64 h = hashPoly(pt.poly);
        for (const Cplx &z : enc.decode(pt)) {
            const double parts[2] = {z.real(), z.imag()};
            u64 bits[2];
            std::memcpy(bits, parts, sizeof bits);
            h = fnv1a(h, bits, 2);
        }
        EXPECT_EQ(h, 142988836448945076ull) << kernels::backendName(b);
    }
}

// ---------------------------------------------------------------------------
// Golden FNV limb-trace hash: integer-domain flows only (no FP encode), so
// the constant is stable across platforms. keySwitch, the unfused oracle
// and the explicit hoisted composition must all land on it.
// ---------------------------------------------------------------------------

TEST(KernelKsDataflow, GoldenLimbTraceHashes)
{
    BackendScope backend_scope;
    kernels::setBackend(kernels::Backend::Scalar);
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 42);
    KswKey rk = keygen.makeRotationKey(1);
    Evaluator eval(ctx, 7);
    Rng rng(8);

    const u32 level = ctx.maxLevel();
    RnsPoly d = randomPoly(ctx, ctx.qBasis(level), rng, Rep::Eval);

    auto hashPair = [](const std::pair<RnsPoly, RnsPoly> &p) {
        return hashPoly(p.second, hashPoly(p.first));
    };

    const u64 kGolden = 12148749097251079694ull;
    EXPECT_EQ(hashPair(eval.keySwitch(d, level, rk)), kGolden);
    EXPECT_EQ(hashPair(eval.keySwitchUnfused(d, level, rk)), kGolden);

    auto digits = eval.hoistedDecompModUp(d, level);
    ASSERT_EQ(digits.size(), ctx.digitCount(level));
    auto [ip_b, ip_a] = eval.hoistedInnerProd(std::move(digits), rk);
    EXPECT_EQ(hashPair(modDownEvalPair(ctx, ip_b, ip_a, level)), kGolden);
}

}  // namespace
}  // namespace crophe::fhe
