/**
 * @file
 * Portable scalar backend of the kernel layer.
 *
 * The NTTs use Harvey-style lazy reduction: forward butterflies keep
 * values in [0,4q) (one conditional correction per butterfly instead of
 * two canonical reductions), inverse butterflies keep values in [0,2q),
 * and a single normalization pass at the end restores canonical [0,q)
 * outputs — bit-identical to the eager reference because every value
 * stays congruent mod q throughout and the final pass fully reduces.
 *
 * This file is compiled with contraction pinned off (see
 * src/CMakeLists.txt) so the BConv float-quotient accumulation is a
 * plain multiply-then-add in every build mode, matching the SIMD
 * backends' mul_pd/add_pd sequences exactly.
 */

#include "fhe/kernels/kernels.h"

#include "common/logging.h"

namespace crophe::fhe::kernels {

namespace {

inline u64
mulHi64(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

/** Shoup lazy product: a·w mod q in [0,2q), for any u64 a and w < q. */
inline u64
shoupMulLazy(u64 a, u64 w, u64 wShoup, u64 q)
{
    u64 hi = mulHi64(a, wShoup);
    return a * w - hi * q;
}

/** Canonical Shoup product; requires a < q. */
inline u64
shoupMul(u64 a, u64 w, u64 wShoup, u64 q)
{
    u64 r = shoupMulLazy(a, w, wShoup, q);
    return r >= q ? r - q : r;
}

/** Two-word Barrett reduction of a 128-bit value (Modulus::reduce). */
inline u64
barrettReduce(u64 xhi, u64 xlo, const BarrettView &b)
{
    u64 carry = mulHi64(xlo, b.lo);
    u128 mid = static_cast<u128>(xlo) * b.hi +
               static_cast<u128>(xhi) * b.lo + carry;
    u64 quot = static_cast<u64>(mid >> 64) + xhi * b.hi;
    u64 r = xlo - quot * b.q;
    while (r >= b.q)
        r -= b.q;
    return r;
}

inline u64
barrettMul(u64 a, u64 c, const BarrettView &b)
{
    u128 x = static_cast<u128>(a) * c;
    return barrettReduce(static_cast<u64>(x >> 64), static_cast<u64>(x), b);
}

/** One forward stage (m blocks of width gap), values lazy in [0,4q). */
inline void
fwdStageScalar(u64 *a, const NttView &t, u64 m, u64 gap)
{
    const u64 q = t.q;
    const u64 twoq = 2 * q;
    for (u64 i = 0; i < m; ++i) {
        const u64 j1 = 2 * i * gap;
        const u64 w = t.w[m + i];
        const u64 ws = t.wShoup[m + i];
        u64 *x = a + j1;
        u64 *y = x + gap;
        for (u64 j = 0; j < gap; ++j) {
            u64 u = x[j];
            if (u >= twoq)
                u -= twoq;
            u64 v = shoupMulLazy(y[j], w, ws, q);
            x[j] = u + v;
            y[j] = u - v + twoq;
        }
    }
}

/** Final forward pass: fold lazy [0,4q) values back to canonical. */
inline void
fwdNormalizeScalar(u64 *a, const NttView &t)
{
    const u64 q = t.q;
    const u64 twoq = 2 * q;
    for (u64 j = 0; j < t.n; ++j) {
        u64 v = a[j];
        if (v >= twoq)
            v -= twoq;
        if (v >= q)
            v -= q;
        a[j] = v;
    }
}

void
fwdNttScalar(u64 *a, const NttView &t)
{
    u64 gap = t.n;
    for (u64 m = 1; m < t.n; m <<= 1) {
        gap >>= 1;
        fwdStageScalar(a, t, m, gap);
    }
    fwdNormalizeScalar(a, t);
}

/** One inverse stage (h blocks of width gap), values lazy in [0,2q). */
inline void
invStageScalar(u64 *a, const NttView &t, u64 h, u64 gap)
{
    const u64 q = t.q;
    const u64 twoq = 2 * q;
    u64 j1 = 0;
    for (u64 i = 0; i < h; ++i) {
        const u64 w = t.w[h + i];
        const u64 ws = t.wShoup[h + i];
        u64 *x = a + j1;
        u64 *y = x + gap;
        for (u64 j = 0; j < gap; ++j) {
            u64 u = x[j];
            u64 v = y[j];
            u64 s = u + v;
            if (s >= twoq)
                s -= twoq;
            x[j] = s;
            y[j] = shoupMulLazy(u - v + twoq, w, ws, q);
        }
        j1 += 2 * gap;
    }
}

/** Final inverse pass: scale by n^{-1} and reduce to canonical. */
inline void
invNormalizeScalar(u64 *a, const NttView &t)
{
    const u64 q = t.q;
    for (u64 j = 0; j < t.n; ++j) {
        u64 v = shoupMulLazy(a[j], t.nInv, t.nInvShoup, q);
        if (v >= q)
            v -= q;
        a[j] = v;
    }
}

void
invNttScalar(u64 *a, const NttView &t)
{
    u64 gap = 1;
    for (u64 m = t.n; m > 1; m >>= 1) {
        invStageScalar(a, t, m >> 1, gap);
        gap <<= 1;
    }
    invNormalizeScalar(a, t);
}

/**
 * Batched transforms: stages outermost, polynomials innermost, so each
 * stage's twiddle block stays cache-hot across the whole batch. Each
 * polynomial sees the identical butterfly sequence as the single-poly
 * kernel, so results are bit-identical by construction.
 */
void
fwdNttScalarBatch(u64 *const *polys, u64 count, const NttView &t)
{
    u64 gap = t.n;
    for (u64 m = 1; m < t.n; m <<= 1) {
        gap >>= 1;
        for (u64 p = 0; p < count; ++p)
            fwdStageScalar(polys[p], t, m, gap);
    }
    for (u64 p = 0; p < count; ++p)
        fwdNormalizeScalar(polys[p], t);
}

void
invNttScalarBatch(u64 *const *polys, u64 count, const NttView &t)
{
    u64 gap = 1;
    for (u64 m = t.n; m > 1; m >>= 1) {
        for (u64 p = 0; p < count; ++p)
            invStageScalar(polys[p], t, m >> 1, gap);
        gap <<= 1;
    }
    for (u64 p = 0; p < count; ++p)
        invNormalizeScalar(polys[p], t);
}

void
addModScalar(u64 *dst, const u64 *src, u64 n, u64 q)
{
    for (u64 i = 0; i < n; ++i) {
        u64 s = dst[i] + src[i];
        dst[i] = s >= q ? s - q : s;
    }
}

void
subModScalar(u64 *dst, const u64 *src, u64 n, u64 q)
{
    for (u64 i = 0; i < n; ++i) {
        u64 a = dst[i];
        u64 b = src[i];
        dst[i] = a >= b ? a - b : a + q - b;
    }
}

void
negModScalar(u64 *dst, u64 n, u64 q)
{
    for (u64 i = 0; i < n; ++i)
        dst[i] = dst[i] == 0 ? 0 : q - dst[i];
}

void
mulModBarrettScalar(u64 *dst, const u64 *src, u64 n, const BarrettView &q)
{
    for (u64 i = 0; i < n; ++i)
        dst[i] = barrettMul(dst[i], src[i], q);
}

void
mulScalarShoupScalar(u64 *dst, u64 n, u64 q, u64 w, u64 wShoup)
{
    for (u64 i = 0; i < n; ++i)
        dst[i] = shoupMul(dst[i], w, wShoup, q);
}

void
gatherScalar(u64 *dst, const u64 *src, const u64 *idx, u64 n)
{
    for (u64 k = 0; k < n; ++k)
        dst[k] = src[idx[k]];
}

void
bconvXhatScalar(u64 *xhat, u64 xhatStride, double *vest, const u64 *in,
                u64 inStride, u64 m, u64 cnt, const u64 *mhatInv,
                const u64 *mhatInvShoup, const u64 *qFrom, const double *invM)
{
    for (u64 i = 0; i < m; ++i) {
        const u64 *row = in + i * inStride;
        u64 *out = xhat + i * xhatStride;
        const u64 w = mhatInv[i];
        const u64 ws = mhatInvShoup[i];
        const u64 q = qFrom[i];
        const double inv = invM[i];
        for (u64 c = 0; c < cnt; ++c) {
            u64 xh = shoupMul(row[c], w, ws, q);
            out[c] = xh;
            vest[c] += static_cast<double>(xh) * inv;
        }
    }
}

void
bconvOutScalar(u64 *out, const u64 *xhat, u64 xhatStride, u64 m, u64 cnt,
               const u64 * /*qFrom*/, const u64 *w, const double *vest,
               u64 mModT, const BarrettView &q)
{
    for (u64 c = 0; c < cnt; ++c) {
        u128 acc = 0;
        for (u64 i = 0; i < m; ++i)
            acc += static_cast<u128>(xhat[i * xhatStride + c]) * w[i];
        u64 s = barrettReduce(static_cast<u64>(acc >> 64),
                              static_cast<u64>(acc), q);
        u64 v = static_cast<u64>(vest[c]);
        u64 corr = barrettMul(v, mModT, q);
        u64 r = s >= corr ? s - corr : s + q.q - corr;
        out[c] = r;
    }
}

template <bool Indexed>
void
kskInnerProdScalarImpl(u64 *accB, u64 *accA, const u64 *const *d,
                       const u64 *idx, const u64 *const *kb,
                       const u64 *const *ka, u64 beta, u64 n,
                       const BarrettView &q)
{
    for (u64 c = 0; c < n; ++c) {
        const u64 src = Indexed ? idx[c] : c;
        u128 sb = 0;
        u128 sa = 0;
        for (u64 j = 0; j < beta; ++j) {
            const u128 x = d[j][src];
            sb += x * kb[j][c];
            sa += x * ka[j][c];
        }
        accB[c] = barrettReduce(static_cast<u64>(sb >> 64),
                                static_cast<u64>(sb), q);
        accA[c] = barrettReduce(static_cast<u64>(sa >> 64),
                                static_cast<u64>(sa), q);
    }
}

void
kskInnerProdScalar(u64 *accB, u64 *accA, const u64 *const *d,
                   const u64 *idx, const u64 *const *kb,
                   const u64 *const *ka, u64 beta, u64 n,
                   const BarrettView &q)
{
    if (idx != nullptr)
        kskInnerProdScalarImpl<true>(accB, accA, d, idx, kb, ka, beta, n, q);
    else
        kskInnerProdScalarImpl<false>(accB, accA, d, idx, kb, ka, beta, n, q);
}

}  // namespace

void
referenceFwdNtt(u64 *a, const NttView &t)
{
    // Seed butterfly order and semantics (canonical reduction after every
    // butterfly), with the conditional subtractions written as branchless
    // masks: on random data the ternaries are 50/50 branches and the
    // mispredictions made this reference row ~4x slower than the inverse
    // transform (whose ternaries happened to compile to cmov). Outputs
    // are bit-identical to the original seed code.
    const u64 q = t.q;
    u64 gap = t.n;
    for (u64 m = 1; m < t.n; m <<= 1) {
        gap >>= 1;
        for (u64 i = 0; i < m; ++i) {
            u64 j1 = 2 * i * gap;
            u64 j2 = j1 + gap;
            const u64 w = t.w[m + i];
            const u64 ws = t.wShoup[m + i];
            for (u64 j = j1; j < j2; ++j) {
                u64 u = a[j];
                u64 v = shoupMul(a[j + gap], w, ws, q);
                u64 s = u + v;
                s -= q & (0 - static_cast<u64>(s >= q));
                a[j] = s;
                u64 d = u - v + (q & (0 - static_cast<u64>(u < v)));
                a[j + gap] = d;
            }
        }
    }
}

void
referenceInvNtt(u64 *a, const NttView &t)
{
    const u64 q = t.q;
    u64 gap = 1;
    for (u64 m = t.n; m > 1; m >>= 1) {
        u64 j1 = 0;
        u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            u64 j2 = j1 + gap;
            const u64 w = t.w[h + i];
            const u64 ws = t.wShoup[h + i];
            for (u64 j = j1; j < j2; ++j) {
                u64 u = a[j];
                u64 v = a[j + gap];
                u64 s = u + v;
                s -= q & (0 - static_cast<u64>(s >= q));
                a[j] = s;
                u64 d = u - v + (q & (0 - static_cast<u64>(u < v)));
                a[j + gap] = shoupMul(d, w, ws, q);
            }
            j1 += 2 * gap;
        }
        gap <<= 1;
    }
    for (u64 j = 0; j < t.n; ++j)
        a[j] = shoupMul(a[j], t.nInv, t.nInvShoup, q);
}

const KernelTable &
scalarTable()
{
    static const KernelTable tbl = {
        "scalar",        fwdNttScalar,        invNttScalar,
        addModScalar,    subModScalar,        negModScalar,
        mulModBarrettScalar, mulScalarShoupScalar, gatherScalar,
        bconvXhatScalar, bconvOutScalar,     kskInnerProdScalar,
        fwdNttScalarBatch, invNttScalarBatch,
    };
    return tbl;
}

}  // namespace crophe::fhe::kernels
