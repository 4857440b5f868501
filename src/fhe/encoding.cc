#include "fhe/encoding.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"

namespace crophe::fhe {

namespace {

/**
 * Round each signed real coefficient and write its residues into every
 * limb of @p poly (Coeff rep); entry i lands at coefficient i. Rounding
 * runs once per coefficient, then each limb is written front to back.
 */
void
setSignedCoeffs(RnsPoly &poly, const std::vector<double> &coeffs)
{
    const u64 count = std::min<u64>(coeffs.size(), poly.n());
    std::vector<i64> rounded(count);
    for (u64 i = 0; i < count; ++i) {
        const double value = coeffs[i];
        const double mag = std::abs(value);
        CROPHE_ASSERT(mag < 0x1.0p62, "coefficient too large to encode: ",
                      value);
        const i64 v = std::llround(mag);
        rounded[i] = value < 0 ? -v : v;
    }
    parallelFor(0, poly.limbCount(), [&](u64 l) {
        const Modulus &m = poly.mod(static_cast<u32>(l));
        const u64 q = m.value();
        u64 *dst = poly.limb(static_cast<u32>(l)).data();
        for (u64 i = 0; i < count; ++i) {
            // Branch-free on the sign, which is random per coefficient:
            // dst = s < 0 ? neg(|s| mod q) : |s| mod q.
            const i64 s = rounded[i];
            const u64 neg = 0 - static_cast<u64>(s < 0);
            const u64 v = (static_cast<u64>(s) ^ neg) - neg;
            const u64 r = v < q ? v : m.reduce64(v);
            const u64 nr = (q - r) & (0 - static_cast<u64>(r != 0));
            dst[i] = (nr & neg) | (r & ~neg);
        }
    });
}

}  // namespace

Encoder::Encoder(const FheContext &ctx) : ctx_(&ctx), fft_(ctx.n())
{
}

Plaintext
Encoder::encode(const std::vector<Cplx> &values, u32 level,
                double scale) const
{
    if (scale == 0.0)
        scale = ctx_->defaultScale();
    const u64 half = slots();

    std::vector<Cplx> vals(half, Cplx(0.0, 0.0));
    for (u64 i = 0; i < values.size() && i < half; ++i)
        vals[i] = values[i];

    fft_.embedInverse(vals);

    std::vector<double> coeffs(2 * half);
    for (u64 j = 0; j < half; ++j) {
        coeffs[j] = vals[j].real() * scale;
        coeffs[j + half] = vals[j].imag() * scale;
    }
    return encodeCoeffs(coeffs, level, scale);
}

Plaintext
Encoder::encodeReal(const std::vector<double> &values, u32 level,
                    double scale) const
{
    std::vector<Cplx> v(values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        v[i] = Cplx(values[i], 0.0);
    return encode(v, level, scale);
}

Plaintext
Encoder::encodeCoeffs(const std::vector<double> &coeffs, u32 level,
                      double scale) const
{
    Plaintext pt;
    pt.scale = scale;
    pt.level = level;
    pt.poly = RnsPoly(*ctx_, ctx_->qBasis(level), Rep::Coeff);
    setSignedCoeffs(pt.poly, coeffs);
    pt.poly.toEval();
    return pt;
}

std::vector<Cplx>
Encoder::decode(const Plaintext &pt) const
{
    RnsPoly poly = pt.poly;
    if (poly.rep() == Rep::Eval)
        poly.toCoeff();

    // CRT constants, once per call: M, every M/m_i and the Shoup form of
    // (M/m_i)^{-1} mod m_i. Each coefficient is then
    //   x = Σ_i [x_i·(M/m_i)^{-1} mod m_i]·(M/m_i) mod M,
    // the sum RnsPoly::reconstructCoeff forms, so the values are equal.
    const u32 limbs = poly.limbCount();
    std::vector<u64> mods(limbs);
    for (u32 i = 0; i < limbs; ++i)
        mods[i] = poly.mod(i).value();
    const BigUInt big_q = productOf(mods);
    std::vector<BigUInt> mhat(limbs);
    std::vector<ShoupMul> mhat_inv(limbs);
    for (u32 i = 0; i < limbs; ++i) {
        std::vector<u64> others;
        for (u32 k = 0; k < limbs; ++k)
            if (k != i)
                others.push_back(mods[k]);
        mhat[i] = productOf(others);
        const Modulus &m = poly.mod(i);
        mhat_inv[i] = ShoupMul(m.inv(mhat[i].modSmall(mods[i])), m);
    }

    // CRT-reconstruct and center each coefficient.
    const BigUInt half_q = big_q.half();
    const u64 n = ctx_->n();
    const u64 half = n / 2;
    std::vector<Cplx> vals(half);
    std::vector<double> coeffs(n);
    for (u64 c = 0; c < n; ++c) {
        BigUInt x(0);
        for (u32 i = 0; i < limbs; ++i)
            x.addMulSmall(mhat[i], mhat_inv[i].mul(poly.limb(i)[c], mods[i]));
        // x < limbs·M; reduce.
        while (!(x < big_q))
            x.subInplace(big_q);
        if (half_q < x) {
            BigUInt neg = big_q;
            neg.subInplace(x);
            coeffs[c] = -neg.toDouble();
        } else {
            coeffs[c] = x.toDouble();
        }
        coeffs[c] /= pt.scale;
    }
    for (u64 j = 0; j < half; ++j)
        vals[j] = Cplx(coeffs[j], coeffs[j + half]);
    fft_.embed(vals);
    return vals;
}

}  // namespace crophe::fhe
