/**
 * @file
 * AVX2 backend: 4-wide 256-bit kernels.
 *
 * AVX2 has no 64x64 multiply, so the 64-bit products the kernels need
 * (Shoup mulhi, Barrett, the BConv 128-bit accumulate) are assembled
 * from vpmuludq 32x32 partial products. All residues are < 2^60, so
 * intermediate lazy values (< 4q < 2^62) stay below 2^63 and magnitude
 * comparisons can use the *signed* vpcmpgtq; only the full-width carry
 * detection in 128-bit additions needs the sign-flip trick.
 *
 * The float-quotient path mirrors the scalar backend operation for
 * operation: u64→double via an exact two-part (hi·2^32 + lo) sum of
 * exactly-representable halves (correctly rounded, equal to a scalar
 * cast), then separate mul_pd/add_pd — never FMA — so vest is
 * bit-identical to the contraction-off scalar path.
 */

#include "fhe/kernels/kernels.h"

#ifdef CROPHE_HAVE_AVX2

#include <immintrin.h>

#include "fhe/kernels/ntt_simd256_inl.h"

namespace crophe::fhe::kernels {

namespace {

inline u64
mulHi64(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

inline u64
shoupMulLazyS(u64 a, u64 w, u64 wShoup, u64 q)
{
    return a * w - mulHi64(a, wShoup) * q;
}

/** Scalar two-word Barrett reduction of a 128-bit value (SIMD loop tails). */
inline u64
barrettReduceS(u128 x, const BarrettView &q)
{
    u64 xlo = static_cast<u64>(x);
    u64 xhi = static_cast<u64>(x >> 64);
    u64 carry = mulHi64(xlo, q.lo);
    u128 mid = static_cast<u128>(xlo) * q.hi +
               static_cast<u128>(xhi) * q.lo + carry;
    u64 quot = static_cast<u64>(mid >> 64) + xhi * q.hi;
    u64 r = xlo - quot * q.q;
    while (r >= q.q)
        r -= q.q;
    return r;
}

/** Low 64 bits of the 4 lane-wise 64x64 products. */
inline __m256i
mulLo64(__m256i x, __m256i y)
{
    __m256i lo = _mm256_mul_epu32(x, y);
    __m256i h1 = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), y);
    __m256i h2 = _mm256_mul_epu32(x, _mm256_srli_epi64(y, 32));
    __m256i cross = _mm256_add_epi64(h1, h2);
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/** High 64 bits of the 4 lane-wise 64x64 products. */
inline __m256i
mulHi64v(__m256i x, __m256i y)
{
    const __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
    __m256i x1 = _mm256_srli_epi64(x, 32);
    __m256i y1 = _mm256_srli_epi64(y, 32);
    __m256i lolo = _mm256_mul_epu32(x, y);
    __m256i hilo = _mm256_mul_epu32(x1, y);
    __m256i lohi = _mm256_mul_epu32(x, y1);
    __m256i hihi = _mm256_mul_epu32(x1, y1);
    __m256i mid = _mm256_add_epi64(hilo, _mm256_srli_epi64(lolo, 32));
    __m256i mid2 = _mm256_add_epi64(lohi, _mm256_and_si256(mid, mask32));
    return _mm256_add_epi64(
        hihi, _mm256_add_epi64(_mm256_srli_epi64(mid, 32),
                               _mm256_srli_epi64(mid2, 32)));
}

/**
 * Both halves of the 4 lane-wise 64x64 products from one set of four
 * vpmuludq partials — callers needing hi *and* lo (the BConv accumulate,
 * Barrett) save the three partial products a separate mulLo64 re-derives.
 */
inline void
mulWide64(__m256i x, __m256i y, __m256i &hi, __m256i &lo)
{
    const __m256i mask32 = _mm256_set1_epi64x(0xffffffff);
    __m256i x1 = _mm256_srli_epi64(x, 32);
    __m256i y1 = _mm256_srli_epi64(y, 32);
    __m256i lolo = _mm256_mul_epu32(x, y);
    __m256i hilo = _mm256_mul_epu32(x1, y);
    __m256i lohi = _mm256_mul_epu32(x, y1);
    __m256i hihi = _mm256_mul_epu32(x1, y1);
    __m256i mid = _mm256_add_epi64(hilo, _mm256_srli_epi64(lolo, 32));
    __m256i mid2 = _mm256_add_epi64(lohi, _mm256_and_si256(mid, mask32));
    hi = _mm256_add_epi64(
        hihi, _mm256_add_epi64(_mm256_srli_epi64(mid, 32),
                               _mm256_srli_epi64(mid2, 32)));
    lo = _mm256_add_epi64(_mm256_slli_epi64(mid2, 32),
                          _mm256_and_si256(lolo, mask32));
}

/** mask of lanes with x >= bound, both < 2^63 (signed compare is safe). */
inline __m256i
geSmall(__m256i x, __m256i boundMinus1)
{
    return _mm256_cmpgt_epi64(x, boundMinus1);
}

/** x - (x >= bound ? bound : 0) for values < 2^63. */
inline __m256i
condSub(__m256i x, __m256i bound, __m256i boundMinus1)
{
    return _mm256_sub_epi64(x,
                            _mm256_and_si256(geSmall(x, boundMinus1), bound));
}

/** Full-width unsigned a < b as a lane mask (sign-flip trick). */
inline __m256i
ltU64(__m256i a, __m256i b)
{
    const __m256i flip = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(b, flip),
                              _mm256_xor_si256(a, flip));
}

/** (hi:lo) += x·y per lane, a 128-bit accumulate. */
inline void
mulAcc128(__m256i &hi, __m256i &lo, __m256i x, __m256i y)
{
    __m256i phi, plo;
    mulWide64(x, y, phi, plo);
    lo = _mm256_add_epi64(lo, plo);
    __m256i carry = ltU64(lo, plo);  // all-ones where the add wrapped
    hi = _mm256_sub_epi64(_mm256_add_epi64(hi, phi), carry);
}

/** Shoup lazy product in [0,2q) per lane; any a, w < q. */
inline __m256i
shoupMulLazyV(__m256i a, __m256i w, __m256i ws, __m256i q)
{
    __m256i hi = mulHi64v(a, ws);
    return _mm256_sub_epi64(mulLo64(a, w), mulLo64(hi, q));
}

struct BarrettV
{
    __m256i q, qm1, lo, hi;
};

inline BarrettV
broadcastBarrett(const BarrettView &b)
{
    BarrettV v;
    v.q = _mm256_set1_epi64x(static_cast<long long>(b.q));
    v.qm1 = _mm256_set1_epi64x(static_cast<long long>(b.q - 1));
    v.lo = _mm256_set1_epi64x(static_cast<long long>(b.lo));
    v.hi = _mm256_set1_epi64x(static_cast<long long>(b.hi));
    return v;
}

/** Lane-wise Barrett reduction of (xhi:xlo) to canonical [0,q). */
inline __m256i
barrettReduceV(__m256i xhi, __m256i xlo, const BarrettV &b)
{
    __m256i carry = mulHi64v(xlo, b.lo);
    // mid = xlo*hi + xhi*lo + carry (128-bit); we need its high word.
    __m256i m1hi, m1lo, m2hi, m2lo;
    mulWide64(xlo, b.hi, m1hi, m1lo);
    mulWide64(xhi, b.lo, m2hi, m2lo);
    __m256i s1 = _mm256_add_epi64(m1lo, m2lo);
    __m256i c1 = ltU64(s1, m1lo);  // all-ones where carry
    __m256i s2 = _mm256_add_epi64(s1, carry);
    __m256i c2 = ltU64(s2, s1);
    __m256i midhi = _mm256_add_epi64(m1hi, m2hi);
    midhi = _mm256_sub_epi64(midhi, c1);  // -(-1) == +1
    midhi = _mm256_sub_epi64(midhi, c2);
    __m256i quot = _mm256_add_epi64(midhi, mulLo64(xhi, b.hi));
    __m256i r = _mm256_sub_epi64(xlo, mulLo64(quot, b.q));
    // quot underestimates by at most 2: r in [0,3q), 3q < 2^62.
    r = condSub(r, b.q, b.qm1);
    r = condSub(r, b.q, b.qm1);
    return r;
}

inline __m256i
barrettMulV(__m256i a, __m256i c, const BarrettV &b)
{
    __m256i hi, lo;
    mulWide64(a, c, hi, lo);
    return barrettReduceV(hi, lo, b);
}

void
fwdNttAvx2(u64 *a, const NttView &t)
{
    // The dispatcher guarantees n >= 8, so the gap-2 and gap-1 stages
    // always exist and every butterfly runs vectorized; the gap-1 stage
    // also performs the final normalization to canonical [0,q).
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    u64 m = 1;
    u64 gap = t.n >> 1;
    for (; gap >= 4; m <<= 1, gap >>= 1)
        simd256::fwdStageWide(a, t, m, gap, c);
    simd256::fwdStageGap2(a, t, m, c);
    m <<= 1;
    simd256::fwdStageGap1Normalize(a, t, m, c);
}

/** Final inverse pass: scale by n^{-1}, reduce to canonical [0,q). */
inline void
invNormalizeAvx2(u64 *a, const NttView &t, const simd256::NttConsts &c)
{
    const __m256i vqm1 =
        _mm256_set1_epi64x(static_cast<long long>(t.q - 1));
    const __m256i nv =
        _mm256_set1_epi64x(static_cast<long long>(t.nInv));
    const __m256i nvs =
        _mm256_set1_epi64x(static_cast<long long>(t.nInvShoup));
    for (u64 j = 0; j < t.n; j += 4) {
        __m256i v =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + j));
        v = simd256::shoupMulLazy(v, nv, nvs, c.vq);
        v = simd256::condSub(v, c.vq, vqm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + j), v);
    }
}

void
invNttAvx2(u64 *a, const NttView &t)
{
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    simd256::invStageGap1(a, t, t.n >> 1, c);
    simd256::invStageGap2(a, t, t.n >> 2, c);
    u64 gap = 4;
    for (u64 h = t.n >> 3; h >= 1; h >>= 1, gap <<= 1)
        simd256::invStageWide(a, t, h, gap, c);
    invNormalizeAvx2(a, t, c);
}

/**
 * Batched transforms: stages outermost, polynomials innermost (the
 * twiddle block of each stage is streamed once per batch). Per-poly
 * butterfly sequence identical to fwdNttAvx2/invNttAvx2, so results
 * are bit-identical.
 */
void
fwdNttAvx2Batch(u64 *const *polys, u64 count, const NttView &t)
{
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    u64 m = 1;
    u64 gap = t.n >> 1;
    for (; gap >= 4; m <<= 1, gap >>= 1)
        for (u64 p = 0; p < count; ++p)
            simd256::fwdStageWide(polys[p], t, m, gap, c);
    for (u64 p = 0; p < count; ++p)
        simd256::fwdStageGap2(polys[p], t, m, c);
    m <<= 1;
    for (u64 p = 0; p < count; ++p)
        simd256::fwdStageGap1Normalize(polys[p], t, m, c);
}

void
invNttAvx2Batch(u64 *const *polys, u64 count, const NttView &t)
{
    const simd256::NttConsts c = simd256::nttConsts(t.q);
    for (u64 p = 0; p < count; ++p)
        simd256::invStageGap1(polys[p], t, t.n >> 1, c);
    for (u64 p = 0; p < count; ++p)
        simd256::invStageGap2(polys[p], t, t.n >> 2, c);
    u64 gap = 4;
    for (u64 h = t.n >> 3; h >= 1; h >>= 1, gap <<= 1)
        for (u64 p = 0; p < count; ++p)
            simd256::invStageWide(polys[p], t, h, gap, c);
    for (u64 p = 0; p < count; ++p)
        invNormalizeAvx2(polys[p], t, c);
}

void
addModAvx2(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i vqm1 = _mm256_set1_epi64x(static_cast<long long>(q - 1));
    u64 i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(dst + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        __m256i s = condSub(_mm256_add_epi64(a, b), vq, vqm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), s);
    }
    for (; i < n; ++i) {
        u64 s = dst[i] + src[i];
        dst[i] = s >= q ? s - q : s;
    }
}

void
subModAvx2(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i vqm1 = _mm256_set1_epi64x(static_cast<long long>(q - 1));
    u64 i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(dst + i));
        __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        // a - b + q, then canonicalize (result of a-b+q is in [1-?..): a<q,
        // b<q so a-b+q in (0, 2q) — one conditional subtract).
        __m256i s = _mm256_add_epi64(_mm256_sub_epi64(a, b), vq);
        s = condSub(s, vq, vqm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), s);
    }
    for (; i < n; ++i) {
        u64 a = dst[i];
        u64 b = src[i];
        dst[i] = a >= b ? a - b : a + q - b;
    }
}

void
negModAvx2(u64 *dst, u64 n, u64 q)
{
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i zero = _mm256_setzero_si256();
    u64 i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(dst + i));
        __m256i isz = _mm256_cmpeq_epi64(a, zero);
        __m256i r = _mm256_sub_epi64(vq, a);
        r = _mm256_andnot_si256(isz, r);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), r);
    }
    for (; i < n; ++i)
        dst[i] = dst[i] == 0 ? 0 : q - dst[i];
}

void
mulModBarrettAvx2(u64 *dst, const u64 *src, u64 n, const BarrettView &q)
{
    const BarrettV b = broadcastBarrett(q);
    u64 i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(dst + i));
        __m256i c = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i),
                            barrettMulV(a, c, b));
    }
    for (; i < n; ++i)
        dst[i] = barrettReduceS(static_cast<u128>(dst[i]) * src[i], q);
}

void
mulScalarShoupAvx2(u64 *dst, u64 n, u64 q, u64 w, u64 wShoup)
{
    const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
    const __m256i vqm1 = _mm256_set1_epi64x(static_cast<long long>(q - 1));
    const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
    const __m256i vws =
        _mm256_set1_epi64x(static_cast<long long>(wShoup));
    u64 i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i a =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(dst + i));
        __m256i r = shoupMulLazyV(a, vw, vws, vq);
        r = condSub(r, vq, vqm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), r);
    }
    for (; i < n; ++i) {
        u64 r = shoupMulLazyS(dst[i], w, wShoup, q);
        dst[i] = r >= q ? r - q : r;
    }
}

void
gatherAvx2(u64 *dst, const u64 *src, const u64 *idx, u64 n)
{
    u64 k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i vi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(idx + k));
        __m256i v = _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(src), vi, 8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + k), v);
    }
    for (; k < n; ++k)
        dst[k] = src[idx[k]];
}

/**
 * Exact u64→double for values < 2^60 (== correctly rounded scalar cast).
 *
 * Magic-constant conversion: the high half is planted on the 2^84
 * exponent (ulp 2^32, so hi·2^32 is exact) and the low half on 2^52
 * (ulp 1, lo exact); subtracting 2^84+2^52 cancels both biases without
 * rounding, and the single final add rounds once — exactly like the
 * scalar cast. Five ops vs the previous split-halves sequence's eight.
 */
inline __m256d
u64ToPd(__m256i x)
{
    const __m256i magicLo = _mm256_set1_epi64x(
        static_cast<long long>(0x4330000000000000ull));  // 2^52
    const __m256i magicHi = _mm256_set1_epi64x(
        static_cast<long long>(0x4530000000000000ull));  // 2^84
    const __m256d magicAll = _mm256_castsi256_pd(_mm256_set1_epi64x(
        static_cast<long long>(0x4530000000100000ull)));  // 2^84 + 2^52
    __m256i lo = _mm256_blend_epi32(magicLo, x, 0x55);
    __m256i hi = _mm256_xor_si256(_mm256_srli_epi64(x, 32), magicHi);
    __m256d dhi = _mm256_sub_pd(_mm256_castsi256_pd(hi), magicAll);
    return _mm256_add_pd(dhi, _mm256_castsi256_pd(lo));
}

void
bconvXhatAvx2(u64 *xhat, u64 xhatStride, double *vest, const u64 *in,
              u64 inStride, u64 m, u64 cnt, const u64 *mhatInv,
              const u64 *mhatInvShoup, const u64 *qFrom, const double *invM)
{
    for (u64 i = 0; i < m; ++i) {
        const u64 *row = in + i * inStride;
        u64 *out = xhat + i * xhatStride;
        const u64 w = mhatInv[i];
        const u64 ws = mhatInvShoup[i];
        const u64 q = qFrom[i];
        const __m256i vq = _mm256_set1_epi64x(static_cast<long long>(q));
        const __m256i vqm1 =
            _mm256_set1_epi64x(static_cast<long long>(q - 1));
        const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(w));
        const __m256i vws =
            _mm256_set1_epi64x(static_cast<long long>(ws));
        const __m256d vinv = _mm256_set1_pd(invM[i]);
        u64 c = 0;
        for (; c + 4 <= cnt; c += 4) {
            __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(row + c));
            __m256i r = shoupMulLazyV(x, vw, vws, vq);
            r = condSub(r, vq, vqm1);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + c), r);
            __m256d d = u64ToPd(r);
            __m256d acc = _mm256_loadu_pd(vest + c);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, vinv));
            _mm256_storeu_pd(vest + c, acc);
        }
        for (; c < cnt; ++c) {
            u64 r = shoupMulLazyS(row[c], w, ws, q);
            if (r >= q)
                r -= q;
            out[c] = r;
            double prod = static_cast<double>(r) * invM[i];
            vest[c] = vest[c] + prod;
        }
    }
}

void
bconvOutAvx2(u64 *out, const u64 *xhat, u64 xhatStride, u64 m, u64 cnt,
             const u64 * /*qFrom*/, const u64 *w, const double *vest,
             u64 mModT, const BarrettView &q)
{
    const BarrettV b = broadcastBarrett(q);
    const __m256i vmmod =
        _mm256_set1_epi64x(static_cast<long long>(mModT));
    // Shoup constant for the per-call-fixed multiplicand mModT < q: the
    // one u128 division amortizes over the tile and replaces the full
    // two-word Barrett correction multiply with a three-product Shoup.
    const u64 mModTShoup = static_cast<u64>(
        (static_cast<u128>(mModT) << 64) / q.q);
    const __m256i vmmods =
        _mm256_set1_epi64x(static_cast<long long>(mModTShoup));
    u64 c = 0;
    for (; c + 4 <= cnt; c += 4) {
        __m256i accLo = _mm256_setzero_si256();
        __m256i accHi = _mm256_setzero_si256();
        for (u64 i = 0; i < m; ++i) {
            __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(xhat + i * xhatStride +
                                                  c));
            mulAcc128(accHi, accLo, x,
                      _mm256_set1_epi64x(static_cast<long long>(w[i])));
        }
        __m256i sres = barrettReduceV(accHi, accLo, b);
        // v = trunc(vest); v < m <= 255 so a 32-bit convert suffices.
        __m128i v32 = _mm256_cvttpd_epi32(_mm256_loadu_pd(vest + c));
        __m256i v = _mm256_cvtepi32_epi64(v32);
        __m256i corr = shoupMulLazyV(v, vmmod, vmmods, b.q);
        corr = condSub(corr, b.q, b.qm1);
        __m256i r = _mm256_add_epi64(_mm256_sub_epi64(sres, corr), b.q);
        r = condSub(r, b.q, b.qm1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + c), r);
    }
    for (; c < cnt; ++c) {
        u128 acc = 0;
        for (u64 i = 0; i < m; ++i)
            acc += static_cast<u128>(xhat[i * xhatStride + c]) * w[i];
        u64 s = barrettReduceS(acc, q);
        u64 v = static_cast<u64>(vest[c]);
        u64 corr = barrettReduceS(static_cast<u128>(v) * mModT, q);
        out[c] = s >= corr ? s - corr : s + q.q - corr;
    }
}

template <bool Indexed>
void
kskInnerProdAvx2Impl(u64 *accB, u64 *accA, const u64 *const *d,
                     const u64 *idx, const u64 *const *kb,
                     const u64 *const *ka, u64 beta, u64 n,
                     const BarrettView &q)
{
    const BarrettV b = broadcastBarrett(q);
    u64 c = 0;
    for (; c + 4 <= n; c += 4) {
        __m256i vi = _mm256_setzero_si256();
        if constexpr (Indexed)
            vi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(idx + c));
        __m256i bLo = _mm256_setzero_si256();
        __m256i bHi = _mm256_setzero_si256();
        __m256i aLo = _mm256_setzero_si256();
        __m256i aHi = _mm256_setzero_si256();
        for (u64 j = 0; j < beta; ++j) {
            __m256i x;
            if constexpr (Indexed)
                x = _mm256_i64gather_epi64(
                    reinterpret_cast<const long long *>(d[j]), vi, 8);
            else
                x = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(d[j] + c));
            mulAcc128(bHi, bLo, x,
                      _mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(kb[j] + c)));
            mulAcc128(aHi, aLo, x,
                      _mm256_loadu_si256(
                          reinterpret_cast<const __m256i *>(ka[j] + c)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(accB + c),
                            barrettReduceV(bHi, bLo, b));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(accA + c),
                            barrettReduceV(aHi, aLo, b));
    }
    for (; c < n; ++c) {
        const u64 src = Indexed ? idx[c] : c;
        u128 sb = 0;
        u128 sa = 0;
        for (u64 j = 0; j < beta; ++j) {
            sb += static_cast<u128>(d[j][src]) * kb[j][c];
            sa += static_cast<u128>(d[j][src]) * ka[j][c];
        }
        accB[c] = barrettReduceS(sb, q);
        accA[c] = barrettReduceS(sa, q);
    }
}

void
kskInnerProdAvx2(u64 *accB, u64 *accA, const u64 *const *d, const u64 *idx,
                 const u64 *const *kb, const u64 *const *ka, u64 beta, u64 n,
                 const BarrettView &q)
{
    if (idx != nullptr)
        kskInnerProdAvx2Impl<true>(accB, accA, d, idx, kb, ka, beta, n, q);
    else
        kskInnerProdAvx2Impl<false>(accB, accA, d, idx, kb, ka, beta, n, q);
}

}  // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable tbl = {
        "avx2",        fwdNttAvx2,        invNttAvx2,
        addModAvx2,    subModAvx2,        negModAvx2,
        mulModBarrettAvx2, mulScalarShoupAvx2, gatherAvx2,
        bconvXhatAvx2, bconvOutAvx2,     kskInnerProdAvx2,
        fwdNttAvx2Batch, invNttAvx2Batch,
    };
    return tbl;
}

}  // namespace crophe::fhe::kernels

#endif  // CROPHE_HAVE_AVX2
