/**
 * @file
 * AVX-512 IFMA backend: the avx512 table with every multiply-heavy entry
 * rebuilt on vpmadd52luq/vpmadd52huq (requires F + DQ + IFMA).
 *
 * The avx512 kernels assemble each 64x64 product from four vpmuludq
 * partials (plus vpmullq); IFMA delivers the low and high 52 bits of a
 * 52x52 product in one instruction each. That is exact only while every
 * operand stays below 2^52, so each entry here first checks its moduli:
 * below 2^50 (every modulus the CKKS library uses) it takes the 52-bit
 * path, where even the lazy NTT's [0,4q) values fit; otherwise it calls
 * the avx512 entry, so the kernels' contract (moduli up to 2^60) holds.
 *
 * No new tables: the 52-bit Shoup quotient of a twiddle is its 64-bit one
 * shifted right by 12, since floor(floor(w·2^64/q)/2^12) =
 * floor(w·2^52/q), and the reduction constants come from the Barrett
 * constant floor(2^128/q) by shifts. Every entry returns canonical
 * residues, so outputs are bit-identical to the other backends; only
 * the lazy intermediates differ.
 */

#include "fhe/kernels/kernels.h"

#ifdef CROPHE_HAVE_AVX512IFMA

#include <immintrin.h>

#include <algorithm>

#include "fhe/kernels/simd512_inl.h"

namespace crophe::fhe::kernels {

namespace {

using simd512::condSub;

inline __m512i
set1(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** Moduli below this take the 52-bit path (4q < 2^52 for the lazy NTT). */
constexpr u64 kIfmaBound = u64(1) << 50;
constexpr u64 kMask52 = (u64(1) << 52) - 1;

/**
 * Rows summed between two folds of a 52-bit accumulator pair. With
 * operands below 2^50 a product's high half is below 2^48, so 15 rows
 * plus a carried-in residue (or the BConv correction term) keep
 * hi + (lo >> 52) below 2^52, the input range of reduce52().
 */
constexpr u64 kFoldRows = 15;

inline __m512i
madd52lo(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52lo_epu64(acc, a, b);
}

inline __m512i
madd52hi(__m512i acc, __m512i a, __m512i b)
{
    return _mm512_madd52hi_epu64(acc, a, b);
}

/** Broadcast modulus constants of the 52-bit kernels. */
struct Mod52
{
    __m512i q, twoQ, negQ, mask;  ///< negQ = 2^52 - q, mask = 2^52 - 1
};

inline Mod52
mod52(u64 q)
{
    return {set1(q), set1(2 * q), set1((u64(1) << 52) - q), set1(kMask52)};
}

/**
 * Shoup lazy product a·w mod q in [0,2q) per lane; requires a < 2^52,
 * w < q < 2^50 and ws = floor(w·2^52/q). The true value a·w - qhat·q is
 * below 2^52, so it equals the low 52 bits of the two 52-bit low
 * products' sum.
 */
inline __m512i
shoupMulLazy52(__m512i a, __m512i w, __m512i ws, const Mod52 &m)
{
    const __m512i qhat = madd52hi(_mm512_setzero_si512(), a, ws);
    __m512i r = madd52lo(_mm512_setzero_si512(), a, w);
    r = madd52lo(r, qhat, m.negQ);
    return _mm512_and_si512(r, m.mask);
}

/** Constants that reduce hi·2^52 + lo to [0,q), derived from q's Barrett. */
struct Reduce52
{
    Mod52 m;
    __m512i k;       ///< 2^52 mod q
    __m512i kShoup;  ///< floor(k·2^52/q)
    __m512i f52;     ///< floor(2^52/q)
};

inline Reduce52
reduce52Consts(const BarrettView &b)
{
    // floor(2^52/q) and floor(2^104/q) are floor(2^128/q) >> 76 and >> 24.
    const u64 f52 = b.hi >> 12;
    const u128 f104 = ((static_cast<u128>(b.hi) << 64) | b.lo) >> 24;
    const u64 k = (u64(1) << 52) - f52 * b.q;
    const u64 kShoup = static_cast<u64>(f104 - (static_cast<u128>(f52) << 52));
    return {mod52(b.q), set1(k), set1(kShoup), set1(f52)};
}

/**
 * (hi·2^52 + lo) mod q, canonical, for hi + (lo >> 52) < 2^52: after
 * moving lo's carry into hi, hi·2^52 ≡ hi·k is a Shoup product and lo a
 * Barrett reduction by floor(2^52/q), each in [0,2q); their sum is
 * recovered from its low 52 bits, then brought into [0,q).
 */
inline __m512i
reduce52(__m512i hi, __m512i lo, const Reduce52 &r)
{
    hi = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
    lo = _mm512_and_si512(lo, r.m.mask);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i qh = madd52hi(zero, hi, r.kShoup);
    const __m512i ql = madd52hi(zero, lo, r.f52);
    __m512i t = madd52lo(lo, hi, r.k);
    t = madd52lo(t, qh, r.m.negQ);
    t = madd52lo(t, ql, r.m.negQ);
    t = _mm512_and_si512(t, r.m.mask);
    return condSub(condSub(t, r.m.twoQ), r.m.q);
}

/** (hi, lo) += the 52-bit halves of x·y per lane. */
inline void
mulAcc52(__m512i &hi, __m512i &lo, __m512i x, __m512i y)
{
    lo = madd52lo(lo, x, y);
    hi = madd52hi(hi, x, y);
}

// -- NTT ---------------------------------------------------------------------
//
// Harvey invariants as in the other backends: forward stage inputs in
// [0,4q), inverse in [0,2q), Shoup lazy products in [0,2q). Stages with
// gap >= 16 run two per pass with broadcast twiddles (the forward
// transform runs one alone when their count is odd; the inverse folds
// n^{-1} into its last pass). The four stages with gap 8, 4, 2, 1 run
// together in registers on each 16-coefficient chunk, moving the x/y
// halves between stages with vpermt2q. Lane k of the first permute
// operand is index k, of the second index 8 + k. (Index vectors are
// plain arrays: a namespace-scope __m512i would run AVX-512 code in
// static initialization on any host.)

using Lanes = u64[8];
alignas(64) constexpr Lanes kEvens = {0, 2, 4, 6, 8, 10, 12, 14};
alignas(64) constexpr Lanes kOdds = {1, 3, 5, 7, 9, 11, 13, 15};
alignas(64) constexpr Lanes kZipLo = {0, 8, 1, 9, 2, 10, 3, 11};
alignas(64) constexpr Lanes kZipHi = {4, 12, 5, 13, 6, 14, 7, 15};
// Between the gap-1 and gap-2 stages (either direction).
alignas(64) constexpr Lanes kG12X = {0, 8, 2, 10, 4, 12, 6, 14};
alignas(64) constexpr Lanes kG12Y = {1, 9, 3, 11, 5, 13, 7, 15};
// Between the gap-2 and gap-4 stages.
alignas(64) constexpr Lanes kG24X = {0, 1, 8, 9, 4, 5, 12, 13};
alignas(64) constexpr Lanes kG24Y = {2, 3, 10, 11, 6, 7, 14, 15};
// Between the gap-4 and gap-8 stages.
alignas(64) constexpr Lanes kG48X = {0, 1, 2, 3, 8, 9, 10, 11};
alignas(64) constexpr Lanes kG48Y = {4, 5, 6, 7, 12, 13, 14, 15};
// Twiddle lanes of the gap-4 (two blocks) and gap-2 (four blocks) stages.
alignas(64) constexpr Lanes kQuads = {0, 0, 0, 0, 1, 1, 1, 1};
alignas(64) constexpr Lanes kPairs = {0, 0, 1, 1, 2, 2, 3, 3};

inline __m512i
lanes(const Lanes &v)
{
    return _mm512_load_si512(v);
}

/** (x, y) <- lanes @p ix and @p iy of the 16-lane concatenation x:y. */
inline void
permute2(__m512i &x, __m512i &y, const Lanes &ix, const Lanes &iy)
{
    const __m512i nx = _mm512_permutex2var_epi64(x, lanes(ix), y);
    y = _mm512_permutex2var_epi64(x, lanes(iy), y);
    x = nx;
}

/** Per-lane twiddles and their 52-bit Shoup quotients. */
struct Twiddle
{
    __m512i w, ws;
};

/** Table entry @p at in every lane. */
inline Twiddle
twiddleAt(const NttView &t, u64 at)
{
    return {set1(t.w[at]), set1(t.wShoup[at] >> 12)};
}

/**
 * Table entry at + spread[k] in lane k (reads entries at..at+7, all
 * inside the n-entry table for the tail stages' at <= n/2).
 */
inline Twiddle
twiddlesSpread(const NttView &t, u64 at, const Lanes &spread)
{
    auto ld = [&](const u64 *p) {
        return _mm512_permutexvar_epi64(lanes(spread),
                                        _mm512_loadu_si512(p + at));
    };
    return {ld(t.w), _mm512_srli_epi64(ld(t.wShoup), 12)};
}

/** Table entries at..at+7, one per lane. */
inline Twiddle
twiddles8(const NttView &t, u64 at)
{
    return {_mm512_loadu_si512(t.w + at),
            _mm512_srli_epi64(_mm512_loadu_si512(t.wShoup + at), 12)};
}

/** Forward CT butterfly: x in [0,4q) -> [0,2q), x' = x+v, y' = x-v+2q. */
inline void
fwdButterfly(__m512i &x, __m512i &y, const Twiddle &w, const Mod52 &m)
{
    const __m512i u = condSub(x, m.twoQ);
    const __m512i v = shoupMulLazy52(y, w.w, w.ws, m);
    x = _mm512_add_epi64(u, v);
    y = _mm512_add_epi64(_mm512_sub_epi64(u, v), m.twoQ);
}

/** Inverse GS butterfly: x' = x+y mod 2q, y' = (x-y+2q)·w lazily. */
inline void
invButterfly(__m512i &x, __m512i &y, const Twiddle &w, const Mod52 &m)
{
    const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(x, y), m.twoQ);
    x = condSub(_mm512_add_epi64(x, y), m.twoQ);
    y = shoupMulLazy52(d, w.w, w.ws, m);
}

/** One forward stage with gap >= 16 over m blocks (radix 2). */
inline void
fwdStageWide(u64 *a, const NttView &t, u64 m, u64 gap, const Mod52 &md)
{
    for (u64 i = 0; i < m; ++i) {
        u64 *x = a + 2 * i * gap;
        u64 *y = x + gap;
        const Twiddle w = twiddleAt(t, m + i);
        for (u64 j = 0; j < gap; j += 16) {
            __m512i x0 = _mm512_loadu_si512(x + j);
            __m512i x1 = _mm512_loadu_si512(x + j + 8);
            __m512i y0 = _mm512_loadu_si512(y + j);
            __m512i y1 = _mm512_loadu_si512(y + j + 8);
            fwdButterfly(x0, y0, w, md);
            fwdButterfly(x1, y1, w, md);
            _mm512_storeu_si512(x + j, x0);
            _mm512_storeu_si512(x + j + 8, x1);
            _mm512_storeu_si512(y + j, y0);
            _mm512_storeu_si512(y + j + 8, y1);
        }
    }
}

/**
 * Forward stages (m blocks, gap) and (2m blocks, gap/2) in one pass,
 * gap >= 32: each step loads x, x + gap/2, y, y + gap/2 once and runs
 * both stages' butterflies on them in registers, halving the traffic
 * of two radix-2 passes.
 */
inline void
fwdStagePair(u64 *a, const NttView &t, u64 m, u64 gap, const Mod52 &md)
{
    const u64 half = gap >> 1;
    for (u64 i = 0; i < m; ++i) {
        u64 *p = a + 2 * i * gap;
        const Twiddle w = twiddleAt(t, m + i);
        const Twiddle wx = twiddleAt(t, 2 * (m + i));
        const Twiddle wy = twiddleAt(t, 2 * (m + i) + 1);
        for (u64 j = 0; j < half; j += 8) {
            u64 *q = p + j;
            __m512i a0 = _mm512_loadu_si512(q);
            __m512i a1 = _mm512_loadu_si512(q + half);
            __m512i a2 = _mm512_loadu_si512(q + gap);
            __m512i a3 = _mm512_loadu_si512(q + gap + half);
            fwdButterfly(a0, a2, w, md);
            fwdButterfly(a1, a3, w, md);
            fwdButterfly(a0, a1, wx, md);
            fwdButterfly(a2, a3, wy, md);
            _mm512_storeu_si512(q, a0);
            _mm512_storeu_si512(q + half, a1);
            _mm512_storeu_si512(q + gap, a2);
            _mm512_storeu_si512(q + gap + half, a3);
        }
    }
}

/**
 * The forward stages with gap 8, 4, 2 and 1 on every 16-coefficient
 * chunk, ending with the reduction to canonical [0,q).
 */
inline void
fwdTail16(u64 *a, const NttView &t, const Mod52 &md)
{
    const u64 m8 = t.n >> 4;
    for (u64 c = 0; c < m8; ++c) {
        u64 *p = a + 16 * c;
        __m512i x = _mm512_loadu_si512(p);
        __m512i y = _mm512_loadu_si512(p + 8);
        fwdButterfly(x, y, twiddleAt(t, m8 + c), md);
        permute2(x, y, kG48X, kG48Y);
        fwdButterfly(x, y, twiddlesSpread(t, 2 * m8 + 2 * c, kQuads), md);
        permute2(x, y, kG24X, kG24Y);
        fwdButterfly(x, y, twiddlesSpread(t, 4 * m8 + 4 * c, kPairs), md);
        permute2(x, y, kG12X, kG12Y);
        fwdButterfly(x, y, twiddles8(t, 8 * m8 + 8 * c), md);
        x = condSub(condSub(x, md.twoQ), md.q);
        y = condSub(condSub(y, md.twoQ), md.q);
        permute2(x, y, kZipLo, kZipHi);
        _mm512_storeu_si512(p, x);
        _mm512_storeu_si512(p + 8, y);
    }
}

/** The inverse stages with gap 1, 2, 4 and 8 on every 16-coefficient chunk. */
inline void
invHead16(u64 *a, const NttView &t, const Mod52 &md)
{
    const u64 h8 = t.n >> 4;
    for (u64 c = 0; c < h8; ++c) {
        u64 *p = a + 16 * c;
        __m512i x = _mm512_loadu_si512(p);
        __m512i y = _mm512_loadu_si512(p + 8);
        permute2(x, y, kEvens, kOdds);
        invButterfly(x, y, twiddles8(t, 8 * h8 + 8 * c), md);
        permute2(x, y, kG12X, kG12Y);
        invButterfly(x, y, twiddlesSpread(t, 4 * h8 + 4 * c, kPairs), md);
        permute2(x, y, kG24X, kG24Y);
        invButterfly(x, y, twiddlesSpread(t, 2 * h8 + 2 * c, kQuads), md);
        permute2(x, y, kG48X, kG48Y);
        invButterfly(x, y, twiddleAt(t, h8 + c), md);
        _mm512_storeu_si512(p, x);
        _mm512_storeu_si512(p + 8, y);
    }
}

/**
 * Inverse stages (h blocks, gap) and (h/2 blocks, 2·gap) in one pass,
 * h >= 4: the mirror of fwdStagePair.
 */
inline void
invStagePair(u64 *a, const NttView &t, u64 h, u64 gap, const Mod52 &md)
{
    for (u64 i = 0; i < h / 2; ++i) {
        u64 *p = a + 4 * i * gap;
        const Twiddle wx = twiddleAt(t, h + 2 * i);
        const Twiddle wy = twiddleAt(t, h + 2 * i + 1);
        const Twiddle w = twiddleAt(t, h / 2 + i);
        for (u64 j = 0; j < gap; j += 8) {
            u64 *q = p + j;
            __m512i a0 = _mm512_loadu_si512(q);
            __m512i a1 = _mm512_loadu_si512(q + gap);
            __m512i a2 = _mm512_loadu_si512(q + 2 * gap);
            __m512i a3 = _mm512_loadu_si512(q + 3 * gap);
            invButterfly(a0, a1, wx, md);
            invButterfly(a2, a3, wy, md);
            invButterfly(a0, a2, w, md);
            invButterfly(a1, a3, w, md);
            _mm512_storeu_si512(q, a0);
            _mm512_storeu_si512(q + gap, a1);
            _mm512_storeu_si512(q + 2 * gap, a2);
            _mm512_storeu_si512(q + 3 * gap, a3);
        }
    }
}

/** Twiddles of the last inverse stage with the n^{-1} scaling folded in. */
struct LastStage
{
    Twiddle x;  ///< n^{-1}
    Twiddle y;  ///< w[1]·n^{-1}
};

inline LastStage
lastStage(const NttView &t)
{
    const u64 wn = static_cast<u64>(static_cast<u128>(t.w[1]) * t.nInv % t.q);
    const u64 wnShoup =
        static_cast<u64>((static_cast<u128>(wn) << 52) / t.q);
    return {{set1(t.nInv), set1(t.nInvShoup >> 12)}, {set1(wn), set1(wnShoup)}};
}

/**
 * The last inverse butterfly fused with the n^{-1} scaling:
 * x' = (x+y)·n^{-1}, y' = (x-y)·(w[1]·n^{-1}), both canonical.
 */
inline void
invButterflyScaled(__m512i &x, __m512i &y, const LastStage &s,
                   const Mod52 &md)
{
    const __m512i sum = _mm512_add_epi64(x, y);
    const __m512i d = _mm512_add_epi64(_mm512_sub_epi64(x, y), md.twoQ);
    x = condSub(shoupMulLazy52(sum, s.x.w, s.x.ws, md), md.q);
    y = condSub(shoupMulLazy52(d, s.y.w, s.y.ws, md), md.q);
}

/** The last inverse stage (one block, gap n/2), scaled. */
inline void
invLastStage(u64 *a, const NttView &t, const Mod52 &md)
{
    const LastStage s = lastStage(t);
    const u64 gap = t.n >> 1;
    for (u64 j = 0; j < gap; j += 8) {
        __m512i x = _mm512_loadu_si512(a + j);
        __m512i y = _mm512_loadu_si512(a + j + gap);
        invButterflyScaled(x, y, s, md);
        _mm512_storeu_si512(a + j, x);
        _mm512_storeu_si512(a + j + gap, y);
    }
}

/** The last two inverse stages (gap n/4, then n/2 scaled) in one pass. */
inline void
invLastStagePair(u64 *a, const NttView &t, const Mod52 &md)
{
    const LastStage s = lastStage(t);
    const Twiddle wx = twiddleAt(t, 2);
    const Twiddle wy = twiddleAt(t, 3);
    const u64 gap = t.n >> 2;
    for (u64 j = 0; j < gap; j += 8) {
        u64 *q = a + j;
        __m512i a0 = _mm512_loadu_si512(q);
        __m512i a1 = _mm512_loadu_si512(q + gap);
        __m512i a2 = _mm512_loadu_si512(q + 2 * gap);
        __m512i a3 = _mm512_loadu_si512(q + 3 * gap);
        invButterfly(a0, a1, wx, md);
        invButterfly(a2, a3, wy, md);
        invButterflyScaled(a0, a2, s, md);
        invButterflyScaled(a1, a3, s, md);
        _mm512_storeu_si512(q, a0);
        _mm512_storeu_si512(q + gap, a1);
        _mm512_storeu_si512(q + 2 * gap, a2);
        _mm512_storeu_si512(q + 3 * gap, a3);
    }
}

/** Whether @p t takes the 52-bit transforms (else the avx512 ones). */
inline bool
ifmaNtt(const NttView &t)
{
    return t.q < kIfmaBound && t.n >= 32;
}

/**
 * Batched transforms: stage passes outermost, polynomials innermost.
 * The single-polynomial entries are batches of one.
 */
void
fwdNttIfmaBatch(u64 *const *polys, u64 count, const NttView &t)
{
    if (!ifmaNtt(t))
        return avx512Table().fwdNttBatch(polys, count, t);
    const Mod52 md = mod52(t.q);
    u64 m = 1;
    u64 gap = t.n >> 1;
    for (; gap >= 32; m <<= 2, gap >>= 2)
        for (u64 p = 0; p < count; ++p)
            fwdStagePair(polys[p], t, m, gap, md);
    if (gap == 16)
        for (u64 p = 0; p < count; ++p)
            fwdStageWide(polys[p], t, m, gap, md);
    for (u64 p = 0; p < count; ++p)
        fwdTail16(polys[p], t, md);
}

void
invNttIfmaBatch(u64 *const *polys, u64 count, const NttView &t)
{
    if (!ifmaNtt(t))
        return avx512Table().invNttBatch(polys, count, t);
    const Mod52 md = mod52(t.q);
    for (u64 p = 0; p < count; ++p)
        invHead16(polys[p], t, md);
    u64 h = t.n >> 5;  // the gap-16 stage's block count
    u64 gap = 16;
    for (; h >= 4; h >>= 2, gap <<= 2)
        for (u64 p = 0; p < count; ++p)
            invStagePair(polys[p], t, h, gap, md);
    // h is now 2 (stages gap n/4 and n/2 left) or 1 (gap n/2 left).
    for (u64 p = 0; p < count; ++p) {
        if (h == 2)
            invLastStagePair(polys[p], t, md);
        else
            invLastStage(polys[p], t, md);
    }
}

void
fwdNttIfma(u64 *a, const NttView &t)
{
    fwdNttIfmaBatch(&a, 1, t);
}

void
invNttIfma(u64 *a, const NttView &t)
{
    invNttIfmaBatch(&a, 1, t);
}

// -- Element-wise and inner-product kernels ----------------------------------
//
// SIMD loop tails are scalar u128 arithmetic reduced with %, which is
// canonical and therefore identical to every other backend.

void
mulModBarrettIfma(u64 *dst, const u64 *src, u64 n, const BarrettView &q)
{
    if (q.q >= kIfmaBound)
        return avx512Table().mulModBarrett(dst, src, n, q);
    const Reduce52 r = reduce52Consts(q);
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i hi = _mm512_setzero_si512();
        __m512i lo = _mm512_setzero_si512();
        mulAcc52(hi, lo, _mm512_loadu_si512(dst + i),
                 _mm512_loadu_si512(src + i));
        _mm512_storeu_si512(dst + i, reduce52(hi, lo, r));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<u64>(static_cast<u128>(dst[i]) * src[i] % q.q);
}

void
mulScalarShoupIfma(u64 *dst, u64 n, u64 q, u64 w, u64 wShoup)
{
    if (q >= kIfmaBound)
        return avx512Table().mulScalarShoup(dst, n, q, w, wShoup);
    const Mod52 md = mod52(q);
    const __m512i vw = set1(w);
    const __m512i vws = set1(wShoup >> 12);
    u64 i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i a = _mm512_loadu_si512(dst + i);
        _mm512_storeu_si512(dst + i,
                            condSub(shoupMulLazy52(a, vw, vws, md), md.q));
    }
    for (; i < n; ++i)
        dst[i] = static_cast<u64>(static_cast<u128>(dst[i]) * w % q);
}

bool
allBelowIfmaBound(const u64 *q, u64 m)
{
    return std::all_of(q, q + m, [](u64 x) { return x < kIfmaBound; });
}

void
bconvXhatIfma(u64 *xhat, u64 xhatStride, double *vest, const u64 *in,
              u64 inStride, u64 m, u64 cnt, const u64 *mhatInv,
              const u64 *mhatInvShoup, const u64 *qFrom, const double *invM)
{
    if (!allBelowIfmaBound(qFrom, m))
        return avx512Table().bconvXhat(xhat, xhatStride, vest, in, inStride,
                                       m, cnt, mhatInv, mhatInvShoup, qFrom,
                                       invM);
    for (u64 i = 0; i < m; ++i) {
        const u64 *row = in + i * inStride;
        u64 *out = xhat + i * xhatStride;
        const Mod52 md = mod52(qFrom[i]);
        const __m512i vw = set1(mhatInv[i]);
        const __m512i vws = set1(mhatInvShoup[i] >> 12);
        const __m512d vinv = _mm512_set1_pd(invM[i]);
        u64 c = 0;
        for (; c + 8 <= cnt; c += 8) {
            const __m512i x = _mm512_loadu_si512(row + c);
            const __m512i r = condSub(shoupMulLazy52(x, vw, vws, md), md.q);
            _mm512_storeu_si512(out + c, r);
            const __m512d d = _mm512_cvtepu64_pd(r);
            __m512d acc = _mm512_loadu_pd(vest + c);
            acc = _mm512_add_pd(acc, _mm512_mul_pd(d, vinv));
            _mm512_storeu_pd(vest + c, acc);
        }
        for (; c < cnt; ++c) {
            const u64 r = static_cast<u64>(static_cast<u128>(row[c]) *
                                           mhatInv[i] % qFrom[i]);
            out[c] = r;
            double prod = static_cast<double>(r) * invM[i];
            vest[c] = vest[c] + prod;
        }
    }
}

/**
 * out = Σ xhat·w - floor(vest)·mModT mod q: the correction enters the
 * 52-bit sums as one more row, floor(vest)·(q - mModT), so each output
 * is reduced once.
 */
void
bconvOutIfma(u64 *out, const u64 *xhat, u64 xhatStride, u64 m, u64 cnt,
             const u64 *qFrom, const u64 *w, const double *vest, u64 mModT,
             const BarrettView &q)
{
    if (q.q >= kIfmaBound || !allBelowIfmaBound(qFrom, m))
        return avx512Table().bconvOut(out, xhat, xhatStride, m, cnt, qFrom,
                                      w, vest, mModT, q);
    const Reduce52 r = reduce52Consts(q);
    const __m512i negM = set1(q.q - mModT);
    u64 c = 0;
    for (; c + 8 <= cnt; c += 8) {
        __m512i hi = _mm512_setzero_si512();
        __m512i lo = _mm512_setzero_si512();
        mulAcc52(hi, lo, _mm512_cvttpd_epu64(_mm512_loadu_pd(vest + c)),
                 negM);
        for (u64 i0 = 0; i0 < m; i0 += kFoldRows) {
            if (i0 != 0) {
                lo = reduce52(hi, lo, r);
                hi = _mm512_setzero_si512();
            }
            for (u64 i = i0; i < std::min(m, i0 + kFoldRows); ++i)
                mulAcc52(hi, lo, _mm512_loadu_si512(xhat + i * xhatStride + c),
                         set1(w[i]));
        }
        _mm512_storeu_si512(out + c, reduce52(hi, lo, r));
    }
    for (; c < cnt; ++c) {
        u128 acc = 0;
        for (u64 i = 0; i < m; ++i)
            acc += static_cast<u128>(xhat[i * xhatStride + c]) * w[i];
        const u64 s = static_cast<u64>(acc % q.q);
        const u64 corr = static_cast<u64>(
            static_cast<u128>(static_cast<u64>(vest[c])) * mModT % q.q);
        out[c] = s >= corr ? s - corr : s + q.q - corr;
    }
}

void
kskInnerProdIfma(u64 *accB, u64 *accA, const u64 *const *d, const u64 *idx,
                 const u64 *const *kb, const u64 *const *ka, u64 beta, u64 n,
                 const BarrettView &q)
{
    if (q.q >= kIfmaBound)
        return avx512Table().kskInnerProd(accB, accA, d, idx, kb, ka, beta,
                                          n, q);
    const Reduce52 r = reduce52Consts(q);
    u64 c = 0;
    for (; c + 8 <= n; c += 8) {
        auto block = [&](auto loadRow) {
            __m512i bHi = _mm512_setzero_si512();
            __m512i bLo = _mm512_setzero_si512();
            __m512i aHi = _mm512_setzero_si512();
            __m512i aLo = _mm512_setzero_si512();
            for (u64 j0 = 0; j0 < beta; j0 += kFoldRows) {
                if (j0 != 0) {
                    bLo = reduce52(bHi, bLo, r);
                    aLo = reduce52(aHi, aLo, r);
                    bHi = aHi = _mm512_setzero_si512();
                }
                for (u64 j = j0; j < std::min(beta, j0 + kFoldRows); ++j) {
                    const __m512i x = loadRow(d[j]);
                    mulAcc52(bHi, bLo, x, _mm512_loadu_si512(kb[j] + c));
                    mulAcc52(aHi, aLo, x, _mm512_loadu_si512(ka[j] + c));
                }
            }
            _mm512_storeu_si512(accB + c, reduce52(bHi, bLo, r));
            _mm512_storeu_si512(accA + c, reduce52(aHi, aLo, r));
        };
        if (idx == nullptr)
            block([c](const u64 *row) { return _mm512_loadu_si512(row + c); });
        else
            simd512::withIndexedRows(idx + c, block);
    }
    for (; c < n; ++c) {
        const u64 src = idx != nullptr ? idx[c] : c;
        u128 sb = 0;
        u128 sa = 0;
        for (u64 j = 0; j < beta; ++j) {
            sb += static_cast<u128>(d[j][src]) * kb[j][c];
            sa += static_cast<u128>(d[j][src]) * ka[j][c];
        }
        accB[c] = static_cast<u64>(sb % q.q);
        accA[c] = static_cast<u64>(sa % q.q);
    }
}

}  // namespace

const KernelTable &
avx512ifmaTable()
{
    static const KernelTable tbl = [] {
        KernelTable t = avx512Table();  // add/sub/neg/gather unchanged
        t.name = "avx512ifma";
        t.fwdNtt = fwdNttIfma;
        t.invNtt = invNttIfma;
        t.mulModBarrett = mulModBarrettIfma;
        t.mulScalarShoup = mulScalarShoupIfma;
        t.bconvXhat = bconvXhatIfma;
        t.bconvOut = bconvOutIfma;
        t.kskInnerProd = kskInnerProdIfma;
        t.fwdNttBatch = fwdNttIfmaBatch;
        t.invNttBatch = invNttIfmaBatch;
        return t;
    }();
    return tbl;
}

}  // namespace crophe::fhe::kernels

#endif  // CROPHE_HAVE_AVX512IFMA
