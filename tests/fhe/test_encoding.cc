#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "fhe/biguint.h"
#include "fhe/cfft.h"
#include "fhe/encoding.h"
#include "tests/fhe/test_util.h"

namespace crophe::fhe {
namespace {

using test::smallContext;

double
maxSlotErr(const std::vector<Cplx> &a, const std::vector<Cplx> &b)
{
    double m = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

TEST(Encoder, EncodeDecodeRoundTrip)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(70);

    std::vector<Cplx> z(enc.slots());
    for (auto &v : z)
        v = Cplx(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);

    Plaintext pt = enc.encode(z, ctx.maxLevel());
    auto back = enc.decode(pt);
    EXPECT_LT(maxSlotErr(z, back), 1e-6);
}

TEST(Encoder, RealEncodeRoundTrip)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    std::vector<double> v = {1.0, -2.5, 3.25, 0.0, 100.0, -0.001};
    Plaintext pt = enc.encodeReal(v, 2);
    auto back = enc.decode(pt);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(back[i].real(), v[i], 1e-5) << i;
        EXPECT_NEAR(back[i].imag(), 0.0, 1e-5) << i;
    }
}

TEST(Encoder, PlaintextAdditionIsSlotwise)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(71);
    std::vector<Cplx> z1(enc.slots()), z2(enc.slots());
    for (u64 i = 0; i < enc.slots(); ++i) {
        z1[i] = Cplx(rng.nextDouble(), 0);
        z2[i] = Cplx(rng.nextDouble(), 0);
    }
    Plaintext p1 = enc.encode(z1, 3);
    Plaintext p2 = enc.encode(z2, 3);
    p1.poly.addInplace(p2.poly);
    auto got = enc.decode(p1);
    for (u64 i = 0; i < enc.slots(); ++i)
        EXPECT_NEAR(got[i].real(), z1[i].real() + z2[i].real(), 1e-5);
}

TEST(Encoder, PlaintextMultiplicationIsSlotwise)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(72);
    std::vector<Cplx> z1(enc.slots()), z2(enc.slots());
    for (u64 i = 0; i < enc.slots(); ++i) {
        z1[i] = Cplx(rng.nextDouble() * 2 - 1, 0);
        z2[i] = Cplx(rng.nextDouble() * 2 - 1, 0);
    }
    Plaintext p1 = enc.encode(z1, 3);
    Plaintext p2 = enc.encode(z2, 3);
    p1.poly.mulEwInplace(p2.poly);
    p1.scale *= p2.scale;
    auto got = enc.decode(p1);
    for (u64 i = 0; i < enc.slots(); ++i)
        EXPECT_NEAR(got[i].real(), z1[i].real() * z2[i].real(), 1e-4) << i;
}

TEST(Encoder, ScaleIsRespected)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    std::vector<double> v = {0.5};
    Plaintext small = enc.encodeReal(v, 1, 1ull << 20);
    Plaintext big = enc.encodeReal(v, 1, 1ull << 40);
    EXPECT_NEAR(enc.decode(small)[0].real(), 0.5, 1e-4);
    EXPECT_NEAR(enc.decode(big)[0].real(), 0.5, 1e-10);
}

/**
 * decode() with the per-coefficient CRT path: RnsPoly::reconstructCoeff
 * recomputes M, every M/m_i and each inverse for every coefficient.
 */
std::vector<Cplx>
decodePerCoefficient(const FheContext &ctx, const Plaintext &pt)
{
    RnsPoly poly = pt.poly;
    if (poly.rep() == Rep::Eval)
        poly.toCoeff();
    BigUInt big_q = ctx.bigQ(pt.level);
    BigUInt half_q = big_q.half();
    const u64 n = ctx.n();
    std::vector<double> coeffs(n);
    for (u64 i = 0; i < n; ++i) {
        BigUInt c = poly.reconstructCoeff(i);
        if (half_q < c) {
            BigUInt neg = big_q;
            neg.subInplace(c);
            coeffs[i] = -neg.toDouble();
        } else {
            coeffs[i] = c.toDouble();
        }
        coeffs[i] /= pt.scale;
    }
    std::vector<Cplx> vals(n / 2);
    for (u64 j = 0; j < n / 2; ++j)
        vals[j] = Cplx(coeffs[j], coeffs[j + n / 2]);
    SpecialFft(n).embed(vals);
    return vals;
}

TEST(Encoder, DecodeMatchesPerCoefficientCrtBitForBit)
{
    const FheContext &ctx = smallContext();
    Encoder enc(ctx);
    Rng rng(73);
    std::vector<Cplx> z(enc.slots());
    for (auto &v : z)
        v = Cplx(rng.nextDouble() * 2 - 1, rng.nextDouble() * 2 - 1);

    for (u32 level = 0; level <= ctx.maxLevel(); ++level) {
        // An encoded plaintext, and one with uniform residues (every
        // coefficient wide, half of them centered to negatives).
        Plaintext encoded = enc.encode(z, level);
        Plaintext uniform = encoded;
        uniform.poly.uniformRandom(rng);
        for (const Plaintext *pt : {&encoded, &uniform}) {
            auto got = enc.decode(*pt);
            auto want = decodePerCoefficient(ctx, *pt);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(Cplx)),
                      0)
                << "level " << level;
        }
    }
}

}  // namespace
}  // namespace crophe::fhe
