#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/arena.h"
#include "common/cpu_features.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/ckks.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using namespace test;

std::vector<u64>
randomCanonical(Rng &rng, u64 n, u64 q)
{
    std::vector<u64> v(n);
    for (auto &x : v)
        x = rng.nextBounded(q);
    return v;
}

// ---------------------------------------------------------------------------
// NTT differentials: every backend vs the retained seed transform
// (referenceFwdNtt/referenceInvNtt) and vs each other, across the ISSUE's
// size/prime grid.
// ---------------------------------------------------------------------------

TEST(KernelNtt, AllBackendsMatchSeedReferenceAcrossSizesAndPrimes)
{
    Rng rng(9001);
    // Odd and even log2(n): the 52-bit transforms pair their wide stages,
    // so the two parities end in different last passes.
    for (u64 n : {u64(1) << 10, u64(1) << 11, u64(1) << 12, u64(1) << 14,
                  u64(1) << 16}) {
        // 50 bits: the largest NTT-friendly prime below 2^50, where the
        // lazy range 4q comes closest to the 52-bit multiplier's limit.
        for (u32 bits : {28u, 36u, 50u, 59u}) {
            u64 q = generateNttPrimes(bits, n, 1)[0];
            Modulus mod(q);
            NttTables tables(n, mod);
            kernels::NttView fwd = tables.forwardView();
            kernels::NttView inv = tables.inverseView();

            std::vector<u64> input = randomCanonical(rng, n, q);

            // Seed reference: eager per-butterfly reduction, kept verbatim.
            std::vector<u64> ref_f = input;
            kernels::referenceFwdNtt(ref_f.data(), fwd);
            std::vector<u64> ref_b = ref_f;
            kernels::referenceInvNtt(ref_b.data(), inv);
            EXPECT_EQ(ref_b, input) << "seed reference round trip n=" << n;

            for (kernels::Backend b : kernels::availableBackends()) {
                const kernels::KernelTable &kt = *kernels::tableFor(b);
                std::vector<u64> got = input;
                kt.fwdNtt(got.data(), fwd);
                EXPECT_EQ(got, ref_f) << kt.name << " fwd n=" << n
                                      << " bits=" << bits;
                kt.invNtt(got.data(), inv);
                EXPECT_EQ(got, input) << kt.name << " inv n=" << n
                                      << " bits=" << bits;
            }
        }
    }
}

TEST(KernelNtt, ForwardMatchesNaiveBitReversedAtSmallN)
{
    const u64 n = 1 << 10;
    const u32 logn = 10;
    Rng rng(9002);
    u64 q = generateNttPrimes(36, n, 1)[0];
    Modulus mod(q);
    NttTables tables(n, mod);

    std::vector<u64> a = randomCanonical(rng, n, q);
    std::vector<u64> naive = nttNaiveNegacyclic(a, mod, tables.psi());

    for (kernels::Backend b : kernels::availableBackends()) {
        std::vector<u64> got = a;
        kernels::tableFor(b)->fwdNtt(got.data(), tables.forwardView());
        for (u64 k = 0; k < n; ++k)
            ASSERT_EQ(got[k], naive[bitReverse(k, logn)])
                << kernels::tableFor(b)->name << " k=" << k;
    }
}

TEST(KernelNtt, AllQMinusOneInputsMatchSeedReference)
{
    // Every coefficient q-1, forward and inverse, single and batched, on
    // each prime size, n = 32 being the smallest size the 52-bit
    // transforms take.
    for (u64 n : {u64(1) << 5, u64(1) << 11, u64(1) << 14}) {
        for (u32 bits : {28u, 36u, 50u, 59u}) {
            u64 q = generateNttPrimes(bits, n, 1)[0];
            Modulus mod(q);
            NttTables tables(n, mod);
            kernels::NttView fwd = tables.forwardView();
            kernels::NttView inv = tables.inverseView();
            const std::vector<u64> input(n, q - 1);
            std::vector<u64> ref_f = input;
            kernels::referenceFwdNtt(ref_f.data(), fwd);
            std::vector<u64> ref_i = input;
            kernels::referenceInvNtt(ref_i.data(), inv);
            for (kernels::Backend b : kernels::availableBackends()) {
                const kernels::KernelTable &kt = *kernels::tableFor(b);
                std::vector<u64> f = input, i = input;
                kt.fwdNtt(f.data(), fwd);
                kt.invNtt(i.data(), inv);
                EXPECT_EQ(f, ref_f)
                    << kt.name << " n=" << n << " bits=" << bits;
                EXPECT_EQ(i, ref_i)
                    << kt.name << " n=" << n << " bits=" << bits;

                std::vector<std::vector<u64>> fb(2, input), ib(2, input);
                u64 *fp[] = {fb[0].data(), fb[1].data()};
                u64 *ip[] = {ib[0].data(), ib[1].data()};
                kernels::fwdNttBatched(kt, fp, 2, fwd);
                kernels::invNttBatched(kt, ip, 2, inv);
                for (u64 p = 0; p < 2; ++p) {
                    EXPECT_EQ(fb[p], ref_f) << kt.name << " batched n=" << n
                                            << " bits=" << bits;
                    EXPECT_EQ(ib[p], ref_i) << kt.name << " batched n=" << n
                                            << " bits=" << bits;
                }
            }
        }
    }
}

TEST(KernelNtt, TinyTransformsStayOnScalarPathAndRoundTrip)
{
    // n < vector width must not crash or diverge: the dispatcher routes
    // them to the scalar table.
    Rng rng(9003);
    for (u64 n : {u64(2), u64(4)}) {
        u64 q = generateNttPrimes(36, n, 1)[0];
        Modulus mod(q);
        NttTables tables(n, mod);
        std::vector<u64> a = randomCanonical(rng, n, q);
        std::vector<u64> got = a;
        tables.forward(got);
        tables.inverse(got);
        EXPECT_EQ(got, a) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// Element-wise kernels: random-input differentials against naive u128
// arithmetic, odd lengths to exercise the vector tails.
// ---------------------------------------------------------------------------

TEST(KernelElementwise, AllBackendsMatchNaiveArithmetic)
{
    Rng rng(9010);
    const u64 n = 1003;  // odd: exercises the scalar tail of SIMD loops
    for (u32 bits : {28u, 36u, 50u, 59u}) {
        u64 q = generateNttPrimes(bits, 1 << 10, 1)[0];
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};

        std::vector<u64> a = randomCanonical(rng, n, q);
        std::vector<u64> b = randomCanonical(rng, n, q);
        u64 w = rng.nextBounded(q);
        u64 w_shoup = shoupQuotient(w, q);

        std::vector<u64> add_ref(n), sub_ref(n), neg_ref(n), mul_ref(n),
            muls_ref(n);
        for (u64 i = 0; i < n; ++i) {
            add_ref[i] = a[i] + b[i] >= q ? a[i] + b[i] - q : a[i] + b[i];
            sub_ref[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
            neg_ref[i] = a[i] == 0 ? 0 : q - a[i];
            mul_ref[i] = u64(u128(a[i]) * b[i] % q);
            muls_ref[i] = u64(u128(a[i]) * w % q);
        }

        std::vector<u64> idx(n);
        for (u64 i = 0; i < n; ++i)
            idx[i] = rng.nextBounded(n);
        std::vector<u64> gather_ref(n);
        for (u64 i = 0; i < n; ++i)
            gather_ref[i] = a[idx[i]];

        for (kernels::Backend back : kernels::availableBackends()) {
            const kernels::KernelTable &kt = *kernels::tableFor(back);
            std::vector<u64> d;

            d = a;
            kt.addMod(d.data(), b.data(), n, q);
            EXPECT_EQ(d, add_ref) << kt.name << " addMod bits=" << bits;

            d = a;
            kt.subMod(d.data(), b.data(), n, q);
            EXPECT_EQ(d, sub_ref) << kt.name << " subMod bits=" << bits;

            d = a;
            kt.negMod(d.data(), n, q);
            EXPECT_EQ(d, neg_ref) << kt.name << " negMod bits=" << bits;

            d = a;
            kt.mulModBarrett(d.data(), b.data(), n, bv);
            EXPECT_EQ(d, mul_ref) << kt.name << " mulModBarrett bits=" << bits;

            d = a;
            kt.mulScalarShoup(d.data(), n, q, w, w_shoup);
            EXPECT_EQ(d, muls_ref) << kt.name << " mulScalarShoup bits="
                                   << bits;

            d.assign(n, 0);
            kt.gather(d.data(), a.data(), idx.data(), n);
            EXPECT_EQ(d, gather_ref) << kt.name << " gather bits=" << bits;
        }
    }
}

TEST(KernelElementwise, EdgeResiduesZeroAndQMinusOne)
{
    const u64 n = 16;
    for (u32 bits : {50u, 59u}) {
        u64 q = generateNttPrimes(bits, 1 << 10, 1)[0];
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};

        std::vector<u64> a(n), b(n);
        for (u64 i = 0; i < n; ++i) {
            a[i] = (i % 2) ? q - 1 : 0;
            b[i] = (i % 3) ? q - 1 : 0;
        }

        for (kernels::Backend back : kernels::availableBackends()) {
            const kernels::KernelTable &kt = *kernels::tableFor(back);
            std::vector<u64> d = a;
            kt.addMod(d.data(), b.data(), n, q);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], (a[i] + b[i]) % q) << kt.name << " i=" << i;
            d = a;
            kt.mulModBarrett(d.data(), b.data(), n, bv);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], u64(u128(a[i]) * b[i] % q)) << kt.name;
            d = a;
            kt.negMod(d.data(), n, q);
            for (u64 i = 0; i < n; ++i)
                EXPECT_EQ(d[i], a[i] ? q - a[i] : 0) << kt.name;
        }
    }
}

// ---------------------------------------------------------------------------
// Fused key-switch inner product: every backend vs a Barrett multiply per
// digit followed by digit-order addMod, up to the largest digit count the
// 128-bit sums allow, with moduli just below 2^60 and 2^50.
// ---------------------------------------------------------------------------

TEST(KernelElementwise, KskInnerProdMatchesBarrettMulThenAddMod)
{
    Rng rng(9012);
    const u64 n = 1003;  // odd: exercises the scalar tail of SIMD loops
    // The largest prime below 2^60, and the largest NTT prime below 2^50
    // (the 52-bit multiply-accumulate path, folded every 15 rows).
    for (u64 q : {(u64(1) << 60) - 93, generateNttPrimes(50, 1 << 10, 1)[0]}) {
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};

        for (u64 beta : {1u, 2u, 5u, 17u, 255u}) {
            for (bool worst : {false, true}) {
                // worst: every residue q-1, the largest sum the kernel holds.
                auto row = [&] {
                    return worst ? std::vector<u64>(n, q - 1)
                                 : randomCanonical(rng, n, q);
                };
                std::vector<std::vector<u64>> d(beta), kb(beta), ka(beta);
                std::vector<const u64 *> dp(beta), kbp(beta), kap(beta);
                for (u64 j = 0; j < beta; ++j) {
                    d[j] = row();
                    kb[j] = row();
                    ka[j] = row();
                    dp[j] = d[j].data();
                    kbp[j] = kb[j].data();
                    kap[j] = ka[j].data();
                }
                for (kernels::Backend back : kernels::availableBackends()) {
                    const kernels::KernelTable &kt = *kernels::tableFor(back);
                    std::vector<u64> want_b(n, 0), want_a(n, 0);
                    for (u64 j = 0; j < beta; ++j) {
                        std::vector<u64> pb = d[j], pa = d[j];
                        kt.mulModBarrett(pb.data(), kb[j].data(), n, bv);
                        kt.mulModBarrett(pa.data(), ka[j].data(), n, bv);
                        kt.addMod(want_b.data(), pb.data(), n, q);
                        kt.addMod(want_a.data(), pa.data(), n, q);
                    }
                    std::vector<u64> got_b(n), got_a(n);
                    kt.kskInnerProd(got_b.data(), got_a.data(), dp.data(),
                                    nullptr, kbp.data(), kap.data(), beta, n,
                                    bv);
                    EXPECT_EQ(got_b, want_b)
                        << kt.name << " q=" << q << " beta=" << beta
                        << " worst=" << worst;
                    EXPECT_EQ(got_a, want_a)
                        << kt.name << " q=" << q << " beta=" << beta
                        << " worst=" << worst;
                }
            }
        }
    }
}

TEST(KernelElementwise, KskInnerProdIndexedMatchesGatherThenInnerProduct)
{
    // The indexed inner product reads d[j][idx[c]]: it must equal a
    // gather of every d row followed by the un-indexed kernel, byte for
    // byte. Rows are N = 1024 long; only the first n = 1003 outputs are
    // computed, so the SIMD loops end in a scalar tail.
    Rng rng(9013);
    const u64 big_n = 1024;
    const u64 n = 1003;
    std::vector<u64> random_perm(big_n);
    for (u64 i = 0; i < big_n; ++i)
        random_perm[i] = i;
    for (u64 i = big_n - 1; i > 0; --i)
        std::swap(random_perm[i], random_perm[rng.nextBounded(i + 1)]);
    const std::vector<u64> aut_table =
        evalAutomorphismTable(galoisElementForRotation(3, big_n), big_n);
    const std::vector<u64> *idx_maps[] = {&aut_table, &random_perm};

    for (u64 q : {(u64(1) << 60) - 93, generateNttPrimes(50, 1 << 10, 1)[0]}) {
        Modulus mod(q);
        kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};
        for (u64 beta : {1u, 5u, 255u}) {
            std::vector<std::vector<u64>> d(beta), kb(beta), ka(beta);
            std::vector<const u64 *> dp(beta), kbp(beta), kap(beta);
            for (u64 j = 0; j < beta; ++j) {
                d[j] = randomCanonical(rng, big_n, q);
                kb[j] = randomCanonical(rng, n, q);
                ka[j] = randomCanonical(rng, n, q);
                dp[j] = d[j].data();
                kbp[j] = kb[j].data();
                kap[j] = ka[j].data();
            }
            for (const std::vector<u64> *idx : idx_maps) {
                for (kernels::Backend back : kernels::availableBackends()) {
                    const kernels::KernelTable &kt = *kernels::tableFor(back);
                    std::vector<std::vector<u64>> moved(
                        beta, std::vector<u64>(n));
                    std::vector<const u64 *> mp(beta);
                    for (u64 j = 0; j < beta; ++j) {
                        kt.gather(moved[j].data(), d[j].data(), idx->data(),
                                  n);
                        mp[j] = moved[j].data();
                    }
                    std::vector<u64> want_b(n), want_a(n), got_b(n), got_a(n);
                    kt.kskInnerProd(want_b.data(), want_a.data(), mp.data(),
                                    nullptr, kbp.data(), kap.data(), beta, n,
                                    bv);
                    kt.kskInnerProd(got_b.data(), got_a.data(), dp.data(),
                                    idx->data(), kbp.data(), kap.data(), beta,
                                    n, bv);
                    const bool aut = idx == &aut_table;
                    EXPECT_EQ(std::memcmp(got_b.data(), want_b.data(),
                                          n * sizeof(u64)),
                              0)
                        << kt.name << " q=" << q << " beta=" << beta
                        << " aut=" << aut;
                    EXPECT_EQ(std::memcmp(got_a.data(), want_a.data(),
                                          n * sizeof(u64)),
                              0)
                        << kt.name << " q=" << q << " beta=" << beta
                        << " aut=" << aut;
                }
            }
        }
    }
}

TEST(KernelElementwise, BconvOutTailMatchesScalarAcrossBackends)
{
    // An odd tile width runs the SIMD backends' scalar tail loops.
    Rng rng(9013);
    const u64 m = 5, cnt = 1003;
    const u64 q = generateNttPrimes(59, 1 << 10, 1)[0];
    Modulus mod(q);
    kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};
    std::vector<u64> xhat = randomCanonical(rng, m * cnt, q);
    std::vector<u64> w = randomCanonical(rng, m, q);
    std::vector<double> vest(cnt);
    for (auto &v : vest)
        v = rng.nextDouble() * m;
    const u64 m_mod_t = rng.nextBounded(q);

    const std::vector<u64> q_from(m, q);

    std::vector<u64> want(cnt);
    kernels::scalarTable().bconvOut(want.data(), xhat.data(), cnt, m, cnt,
                                    q_from.data(), w.data(), vest.data(),
                                    m_mod_t, bv);
    for (kernels::Backend back : kernels::availableBackends()) {
        const kernels::KernelTable &kt = *kernels::tableFor(back);
        std::vector<u64> got(cnt);
        kt.bconvOut(got.data(), xhat.data(), cnt, m, cnt, q_from.data(),
                    w.data(), vest.data(), m_mod_t, bv);
        EXPECT_EQ(got, want) << kt.name;
    }
}

TEST(KernelElementwise, BconvKernelsMatchScalarAcrossModulusSizes)
{
    // Both BConv stages, every backend vs scalar, on 50- and 35-bit
    // moduli (the 52-bit multiply-accumulate path) at source counts on
    // both sides of its 15-row fold, with random and worst-case (q-1)
    // residues. With wide_source one source modulus is 59 bits among
    // the 50/35-bit ones: its xhat reach 2^58, which a 52-bit multiplier
    // would truncate, so the kernels must take their 64-bit path.
    Rng rng(9014);
    const u64 cnt = 203;  // 25 SIMD blocks and a 3-coefficient tail
    const u64 q50 = generateNttPrimes(50, 1 << 10, 1)[0];
    const u64 q35 = generateNttPrimes(35, 1 << 10, 1)[0];
    const u64 q59 = generateNttPrimes(59, 1 << 10, 1)[0];
    for (u64 m : {1u, 5u, 15u, 16u, 31u, 255u}) {
        for (bool wide_source : {false, true}) {
            for (bool worst : {false, true}) {
                auto residue = [&](u64 q) {
                    return worst ? q - 1 : rng.nextBounded(q);
                };
                std::vector<u64> q_from(m), mhat_inv(m), mhat_inv_shoup(m);
                std::vector<double> inv_m(m);
                std::vector<u64> in(m * cnt);
                for (u64 i = 0; i < m; ++i) {
                    q_from[i] = i % 2 ? q35 : q50;
                    if (wide_source && i == m / 2)
                        q_from[i] = q59;
                    mhat_inv[i] = residue(q_from[i]);
                    mhat_inv_shoup[i] = shoupQuotient(mhat_inv[i], q_from[i]);
                    inv_m[i] = 1.0 / static_cast<double>(q_from[i]);
                    for (u64 c = 0; c < cnt; ++c)
                        in[i * cnt + c] = residue(q_from[i]);
                }
                std::vector<u64> xhat_want(m * cnt);
                std::vector<double> vest_want(cnt, 0.0);
                kernels::scalarTable().bconvXhat(
                    xhat_want.data(), cnt, vest_want.data(), in.data(), cnt,
                    m, cnt, mhat_inv.data(), mhat_inv_shoup.data(),
                    q_from.data(), inv_m.data());

                for (u64 q_to : {q50, q35}) {
                    Modulus mod(q_to);
                    kernels::BarrettView bv{q_to, mod.barrettLo(),
                                            mod.barrettHi()};
                    std::vector<u64> w(m);
                    for (auto &x : w)
                        x = residue(q_to);
                    const u64 m_mod_t = residue(q_to);
                    std::vector<u64> out_want(cnt);
                    kernels::scalarTable().bconvOut(
                        out_want.data(), xhat_want.data(), cnt, m, cnt,
                        q_from.data(), w.data(), vest_want.data(), m_mod_t,
                        bv);
                    for (kernels::Backend back :
                         kernels::availableBackends()) {
                        const kernels::KernelTable &kt =
                            *kernels::tableFor(back);
                        std::vector<u64> xhat(m * cnt);
                        std::vector<double> vest(cnt, 0.0);
                        kt.bconvXhat(xhat.data(), cnt, vest.data(), in.data(),
                                     cnt, m, cnt, mhat_inv.data(),
                                     mhat_inv_shoup.data(), q_from.data(),
                                     inv_m.data());
                        EXPECT_EQ(xhat, xhat_want)
                            << kt.name << " m=" << m << " wide=" << wide_source;
                        EXPECT_EQ(vest, vest_want)
                            << kt.name << " m=" << m << " wide=" << wide_source;
                        std::vector<u64> out(cnt);
                        kt.bconvOut(out.data(), xhat_want.data(), cnt, m, cnt,
                                    q_from.data(), w.data(), vest_want.data(),
                                    m_mod_t, bv);
                        EXPECT_EQ(out, out_want)
                            << kt.name << " m=" << m << " q_to=" << q_to
                            << " wide=" << wide_source << " worst=" << worst;
                    }
                }
            }
        }
    }
}

TEST(KernelElementwise, Avx512IfmaMatchesAvx512WhereItFallsBack)
{
    // At or above its 2^50 bound (51- and 59-bit moduli: the lazy NTT's
    // 4q would pass 2^52) and below n = 32 the avx512ifma table hands
    // over to the avx512 entries: byte-identical outputs, including the
    // lazy-range edge input q-1.
    if (!kernels::available(kernels::Backend::Avx512Ifma))
        GTEST_SKIP() << "avx512ifma unavailable on this host/binary";
    const kernels::KernelTable &ifma =
        *kernels::tableFor(kernels::Backend::Avx512Ifma);
    const kernels::KernelTable &wide =
        *kernels::tableFor(kernels::Backend::Avx512);
    Rng rng(9015);

    for (auto [n, bits] : {std::pair<u64, u32>{1 << 10, 59},
                           std::pair<u64, u32>{1 << 10, 51},
                           std::pair<u64, u32>{16, 50}}) {
        u64 q = generateNttPrimes(bits, n, 1)[0];
        Modulus mod(q);
        NttTables tables(n, mod);
        for (bool edge : {false, true}) {
            std::vector<u64> a =
                edge ? std::vector<u64>(n, q - 1) : randomCanonical(rng, n, q);
            std::vector<u64> x = a, y = a;
            ifma.fwdNtt(x.data(), tables.forwardView());
            wide.fwdNtt(y.data(), tables.forwardView());
            EXPECT_EQ(x, y) << "fwd n=" << n << " bits=" << bits;
            ifma.invNtt(x.data(), tables.inverseView());
            wide.invNtt(y.data(), tables.inverseView());
            EXPECT_EQ(x, y) << "inv n=" << n << " bits=" << bits;
            u64 *xp[] = {x.data()};
            u64 *yp[] = {y.data()};
            ifma.fwdNttBatch(xp, 1, tables.forwardView());
            wide.fwdNttBatch(yp, 1, tables.forwardView());
            EXPECT_EQ(x, y) << "fwd batch n=" << n << " bits=" << bits;
        }
    }

    const u64 n = 1003;
    const u64 q = generateNttPrimes(59, 1 << 10, 1)[0];
    Modulus mod(q);
    kernels::BarrettView bv{q, mod.barrettLo(), mod.barrettHi()};
    const std::vector<u64> a = randomCanonical(rng, n, q);
    const std::vector<u64> b(n, q - 1);
    const u64 w = q - 1;
    std::vector<u64> x = a, y = a;
    ifma.mulModBarrett(x.data(), b.data(), n, bv);
    wide.mulModBarrett(y.data(), b.data(), n, bv);
    EXPECT_EQ(x, y) << "mulModBarrett";
    ifma.mulScalarShoup(x.data(), n, q, w, shoupQuotient(w, q));
    wide.mulScalarShoup(y.data(), n, q, w, shoupQuotient(w, q));
    EXPECT_EQ(x, y) << "mulScalarShoup";
    const u64 *rows[] = {a.data(), b.data(), x.data()};
    std::vector<u64> xb(n), xa(n), yb(n), ya(n);
    ifma.kskInnerProd(xb.data(), xa.data(), rows, nullptr, rows, rows, 3, n,
                      bv);
    wide.kskInnerProd(yb.data(), ya.data(), rows, nullptr, rows, rows, 3, n,
                      bv);
    EXPECT_EQ(xb, yb) << "kskInnerProd";
    EXPECT_EQ(xa, ya) << "kskInnerProd";
}

// ---------------------------------------------------------------------------
// BConv / ModUp / ModDown / key-switch: backends must be limb-for-limb
// identical through the full composite paths, at 1, 2 and 8 threads.
// ---------------------------------------------------------------------------

TEST(KernelBconv, ConvertIdenticalAcrossBackendsAndThreadCounts)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    Rng rng(9020);
    RnsPoly in(ctx, ctx.qBasis(3), Rep::Coeff);
    in.uniformRandom(rng);
    BaseConverter conv(ctx, ctx.qBasis(3), ctx.pBasis());

    kernels::setBackend(kernels::Backend::Scalar);
    ThreadPool::setGlobalThreads(1);
    RnsPoly ref = conv.convert(in);

    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : kernels::availableBackends()) {
            kernels::setBackend(b);
            RnsPoly got = conv.convert(in);
            for (u32 l = 0; l < ref.limbCount(); ++l)
                EXPECT_EQ(got.limbVec(l), ref.limbVec(l))
                    << kernels::backendName(b) << " threads=" << threads
                    << " limb " << l;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(KernelBconv, ModUpModDownIdenticalAcrossBackends)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    Rng rng(9021);
    const u32 level = 4;
    RnsPoly d(ctx, ctx.qBasis(level), Rep::Coeff);
    d.uniformRandom(rng);

    kernels::setBackend(kernels::Backend::Scalar);
    RnsPoly up_ref = modUpDigit(ctx, d, 1, level);
    RnsPoly down_ref = modDown(ctx, up_ref, level);

    for (kernels::Backend b : kernels::availableBackends()) {
        kernels::setBackend(b);
        RnsPoly up = modUpDigit(ctx, d, 1, level);
        RnsPoly down = modDown(ctx, up, level);
        for (u32 l = 0; l < up_ref.limbCount(); ++l)
            EXPECT_EQ(up.limbVec(l), up_ref.limbVec(l))
                << kernels::backendName(b) << " modup limb " << l;
        for (u32 l = 0; l < down_ref.limbCount(); ++l)
            EXPECT_EQ(down.limbVec(l), down_ref.limbVec(l))
                << kernels::backendName(b) << " moddown limb " << l;
    }
}

TEST(KernelBconv, KeySwitchPipelineIdenticalAcrossBackendsAndThreads)
{
    BackendScope restore;
    const FheContext &ctx = smallContext();
    KeyGenerator keygen(ctx, 1234);
    PublicKey pk = keygen.makePublicKey();
    KswKey rlk = keygen.makeRelinKey();
    KswKey rk = keygen.makeRotationKey(3);

    auto run = [&]() {
        Evaluator eval(ctx, 77);
        Rng rng(78);
        std::vector<double> v(ctx.n() / 2);
        for (auto &x : v)
            x = rng.nextDouble() - 0.5;
        Plaintext pt = eval.encoder().encodeReal(v, ctx.maxLevel());
        Ciphertext ct = eval.encrypt(pt, pk);
        Ciphertext prod = eval.mul(ct, ct, rlk);
        Ciphertext rot = eval.rotate(prod, 3, rk);
        std::vector<std::vector<u64>> limbs;
        for (u32 l = 0; l < rot.a.limbCount(); ++l)
            limbs.push_back(rot.a.limbVec(l));
        for (u32 l = 0; l < rot.b.limbCount(); ++l)
            limbs.push_back(rot.b.limbVec(l));
        return limbs;
    };

    kernels::setBackend(kernels::Backend::Scalar);
    ThreadPool::setGlobalThreads(1);
    auto ref = run();

    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Backend b : kernels::availableBackends()) {
            kernels::setBackend(b);
            EXPECT_EQ(run(), ref)
                << kernels::backendName(b) << " threads=" << threads;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: a fixed CKKS pipeline (encode → encrypt → add →
// mul+relin → rescale → rotate → conjugate → modup → moddown → decrypt)
// whose per-step limb hashes were recorded against the seed library
// (pre-kernel-layer scalar code). Any backend, any thread count, must
// reproduce every hash exactly.
// ---------------------------------------------------------------------------

u64
hashCt(const Ciphertext &ct)
{
    u64 h = hashPoly(ct.b);
    h ^= hashPoly(ct.a) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

TEST(KernelGolden, BootstrapScalePipelineMatchesSeedHashes)
{
    // Hashes recorded by running this exact pipeline against the seed
    // library (commit 8a0410c, scalar only). They pin bit-identity of the
    // whole rewrite: lazy-reduction NTT, SIMD kernels, slab layout,
    // cached converters, tiled BConv.
    struct Step
    {
        const char *name;
        u64 hash;
    };
    static constexpr Step kGolden[] = {
        {"encode", 0xbb67c3cf19427f77ull},  {"encrypt", 0x34e1a62e47af48fcull},
        {"hadd", 0x1d6f883d646a6442ull},    {"hmult", 0xbd02b894146c591full},
        {"rescale", 0x3f255032adfbc33eull}, {"rotate", 0x4862a403cb1172a5ull},
        {"conjugate", 0xd63ab6022ed61fbfull},
        {"modup", 0xad07f53ab19f1588ull},   {"moddown", 0x444351fe063b0383ull},
        {"decrypt", 0x92d714c7d771321aull},
    };

    FheContextParams p;
    p.n = 1 << 12;
    p.levels = 4;
    p.alpha = 2;
    FheContext ctx(p);
    KeyGenerator keygen(ctx, 42);
    PublicKey pk = keygen.makePublicKey();
    KswKey rlk = keygen.makeRelinKey();
    KswKey rk1 = keygen.makeRotationKey(1);
    KswKey ck = keygen.makeConjugationKey();
    Evaluator eval(ctx, 7);

    Rng rng(8);
    std::vector<double> v(ctx.n() / 2);
    for (auto &x : v)
        x = rng.nextDouble() - 0.5;

    std::vector<u64> got;
    Plaintext pt = eval.encoder().encodeReal(v, ctx.maxLevel());
    got.push_back(hashPoly(pt.poly));

    Ciphertext ct0 = eval.encrypt(pt, pk);
    Ciphertext ct1 = eval.encrypt(pt, pk);
    got.push_back(hashCt(ct0));
    got.push_back(hashCt(eval.add(ct0, ct1)));

    Ciphertext prod = eval.mul(ct0, ct1, rlk);
    got.push_back(hashCt(prod));

    Ciphertext rs = eval.rescale(prod);
    got.push_back(hashCt(rs));

    Ciphertext rot = eval.rotate(rs, 1, rk1);
    got.push_back(hashCt(rot));

    Ciphertext conj = eval.conjugate(rot, ck);
    got.push_back(hashCt(conj));

    RnsPoly d = prod.a;
    d.toCoeff();
    RnsPoly up = modUpDigit(ctx, d, 0, prod.level);
    got.push_back(hashPoly(up));
    got.push_back(hashPoly(modDown(ctx, up, prod.level)));

    got.push_back(hashPoly(eval.decrypt(conj, keygen.secretKey()).poly));

    ASSERT_EQ(got.size(), std::size(kGolden));
    for (u64 i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], kGolden[i].hash)
            << kGolden[i].name << " diverged from the seed library on "
            << kernels::table().name;
}

// ---------------------------------------------------------------------------
// Dispatch, arena and CPU-feature plumbing.
// ---------------------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysAvailableAndNamesRoundTrip)
{
    BackendScope restore;
    EXPECT_TRUE(kernels::available(kernels::Backend::Scalar));
    kernels::setBackend(kernels::Backend::Scalar);
    EXPECT_EQ(kernels::activeBackend(), kernels::Backend::Scalar);
    EXPECT_STREQ(kernels::table().name, "scalar");

    EXPECT_TRUE(kernels::setBackendByName("scalar"));
    EXPECT_TRUE(kernels::setBackendByName("auto"));
    // Unknown names are rejected without changing the selection.
    kernels::Backend before = kernels::activeBackend();
    EXPECT_FALSE(kernels::setBackendByName("sse9"));
    EXPECT_EQ(kernels::activeBackend(), before);
}

TEST(KernelDispatch, AvailabilityIsConsistentWithCpuFeatures)
{
    const CpuFeatures &f = cpuFeatures();
#ifdef CROPHE_HAVE_AVX2
    EXPECT_EQ(kernels::available(kernels::Backend::Avx2), f.avx2);
#else
    EXPECT_FALSE(kernels::available(kernels::Backend::Avx2));
#endif
#ifdef CROPHE_HAVE_AVX512
    EXPECT_EQ(kernels::available(kernels::Backend::Avx512), f.avx512);
#else
    EXPECT_FALSE(kernels::available(kernels::Backend::Avx512));
#endif
#ifdef CROPHE_HAVE_AVX512IFMA
    EXPECT_EQ(kernels::available(kernels::Backend::Avx512Ifma), f.avx512ifma);
#else
    EXPECT_FALSE(kernels::available(kernels::Backend::Avx512Ifma));
#endif
    // IFMA is reported only on top of the avx512 features it builds on.
    EXPECT_TRUE(!f.avx512ifma || f.avx512);
}

TEST(ScratchArena, ScopeRewindReusesStorage)
{
    ScratchArena &arena = ScratchArena::local();
    u64 *first = nullptr;
    {
        ScratchArena::Scope scope;
        first = arena.alloc<u64>(1024);
        ASSERT_NE(first, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % kCacheLineBytes, 0u);
        first[0] = 42;
        first[1023] = 43;
    }
    {
        // After rewind the same storage is handed out again.
        ScratchArena::Scope scope;
        u64 *second = arena.alloc<u64>(1024);
        EXPECT_EQ(second, first);
    }
}

TEST(ScratchArena, NestedScopesRewindIndependently)
{
    ScratchArena &arena = ScratchArena::local();
    ScratchArena::Scope outer;
    u64 *a = arena.alloc<u64>(16);
    u64 *inner_ptr = nullptr;
    {
        ScratchArena::Scope inner;
        inner_ptr = arena.alloc<u64>(16);
        EXPECT_NE(inner_ptr, a);
    }
    // Inner rewind must not release the outer allocation.
    u64 *b = arena.alloc<u64>(16);
    EXPECT_EQ(b, inner_ptr);
    EXPECT_NE(b, a);
}

}  // namespace
}  // namespace crophe::fhe
