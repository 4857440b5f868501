#include "fhe/bconv.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/logging.h"
#include "common/parallel.h"

namespace crophe::fhe {

namespace {

/** Coefficients per BConv tile: the m × kTile xhat block plus the tile's
 *  quotients stay L1/L2-resident while every target modulus consumes
 *  them. 512 coefficients × 60 limbs is ~240 KiB of u64. */
constexpr u64 kTileCoeffs = 512;

}  // namespace

BaseConverter::BaseConverter(const FheContext &ctx, std::vector<u32> from,
                             std::vector<u32> to)
    : ctx_(&ctx), from_(std::move(from)), to_(std::move(to))
{
    const u32 m = static_cast<u32>(from_.size());
    const u32 t = static_cast<u32>(to_.size());
    CROPHE_ASSERT(m > 0 && t > 0, "empty basis in BaseConverter");
    // The stage-2 kernels accumulate m products of <2^120 in 128 bits
    // without intermediate reduction; m < 256 keeps that exact.
    CROPHE_ASSERT(m < 256, "source basis too large for BConv kernels");

    std::vector<u64> from_vals;
    from_vals.reserve(m);
    for (u32 idx : from_)
        from_vals.push_back(ctx.modValue(idx));

    // Each complement product M/m_i is computed exactly once and reused
    // for every target modulus.
    std::vector<BigUInt> mhat;
    mhat.reserve(m);
    std::vector<u64> others;
    others.reserve(m > 0 ? m - 1 : 0);
    for (u32 i = 0; i < m; ++i) {
        others.clear();
        for (u32 k = 0; k < m; ++k)
            if (k != i)
                others.push_back(from_vals[k]);
        mhat.push_back(others.empty() ? BigUInt(1) : productOf(others));
    }

    mhatInv_.assign(m);
    mhatInvShoup_.assign(m);
    fromQ_.assign(m);
    invM_.assign(m);
    for (u32 i = 0; i < m; ++i) {
        const Modulus &mi = ctx.mod(from_[i]);
        mhatInv_[i] = mi.inv(mhat[i].modSmall(mi.value()));
        mhatInvShoup_[i] = shoupQuotient(mhatInv_[i], mi.value());
        fromQ_[i] = mi.value();
        invM_[i] = 1.0 / static_cast<double>(mi.value());
    }

    BigUInt big_m = productOf(from_vals);
    mhatModT_.assign(static_cast<std::size_t>(t) * m);
    mModT_.resize(t);
    toView_.resize(t);
    for (u32 j = 0; j < t; ++j) {
        const Modulus &tj = ctx.mod(to_[j]);
        for (u32 i = 0; i < m; ++i)
            mhatModT_[static_cast<std::size_t>(j) * m + i] =
                mhat[i].modSmall(tj.value());
        mModT_[j] = big_m.modSmall(tj.value());
        toView_[j] = {tj.value(), tj.barrettLo(), tj.barrettHi()};
    }
}

RnsPoly
BaseConverter::convert(const RnsPoly &in) const
{
    RnsPoly out(*ctx_, to_, Rep::Coeff);
    std::vector<u64 *> rows(to_.size());
    for (u32 j = 0; j < to_.size(); ++j)
        rows[j] = out.limb(j).data();
    convertInto(in, rows.data());
    return out;
}

void
BaseConverter::convertInto(const RnsPoly &in, u64 *const *dst_rows) const
{
    CROPHE_ASSERT(in.rep() == Rep::Coeff, "BConv requires Coeff rep");
    CROPHE_ASSERT(in.basis() == from_, "input basis mismatch");
    const u32 m = static_cast<u32>(from_.size());
    const u32 t = static_cast<u32>(to_.size());
    const u64 n = in.n();
    const u64 in_stride = in.limbStride();

    const auto &kt = kernels::table();

    // Coefficients are independent, so chunk the coefficient axis; each
    // chunk tiles through its range with thread-local arena scratch.
    // Per-coefficient arithmetic is exact (integer mod-q plus a float
    // quotient accumulated in fixed ascending-limb order), so the result
    // is bit-identical for any chunking or tile size.
    const u64 *in_base = in.limb(0).data();
    parallelForRange(0, n, [&](u64 c0, u64 c1) {
        ScratchArena::Scope scope;
        ScratchArena &arena = ScratchArena::local();
        u64 *xhat = arena.alloc<u64>(static_cast<std::size_t>(m) *
                                     kTileCoeffs);
        double *vest = arena.alloc<double>(kTileCoeffs);
        for (u64 tile = c0; tile < c1; tile += kTileCoeffs) {
            const u64 cnt = std::min(kTileCoeffs, c1 - tile);
            std::fill(vest, vest + cnt, 0.0);
            kt.bconvXhat(xhat, kTileCoeffs, vest, in_base + tile, in_stride,
                         m, cnt, mhatInv_.data(), mhatInvShoup_.data(),
                         fromQ_.data(), invM_.data());
            for (u32 j = 0; j < t; ++j) {
                kt.bconvOut(dst_rows[j] + tile, xhat, kTileCoeffs, m, cnt,
                            fromQ_.data(),
                            mhatModT_.data() + static_cast<std::size_t>(j) * m,
                            vest, mModT_[j], toView_[j]);
            }
        }
    });
}

RnsPoly
modUpDigit(const FheContext &ctx, const RnsPoly &d_coeff, u32 digit,
           u32 level)
{
    CROPHE_ASSERT(d_coeff.rep() == Rep::Coeff, "ModUp requires Coeff rep");
    auto digit_limbs = ctx.digitLimbs(digit, level);
    auto target = ctx.qpBasis(level);

    RnsPoly digit_poly = d_coeff.restrictedTo(digit_limbs);

    // Convert the digit to the moduli it does not already cover, then
    // splice its own limbs through unchanged.
    std::vector<u32> missing;
    for (u32 idx : target) {
        bool have = false;
        for (u32 d : digit_limbs)
            have |= (d == idx);
        if (!have)
            missing.push_back(idx);
    }
    const BaseConverter &conv = ctx.converter(digit_limbs, missing);
    RnsPoly converted = conv.convert(digit_poly);

    RnsPoly out(ctx, target, Rep::Coeff);
    u32 mi = 0;
    for (u32 k = 0; k < target.size(); ++k) {
        bool own = false;
        for (u32 i = 0; i < digit_limbs.size(); ++i) {
            if (digit_limbs[i] == target[k]) {
                out.copyLimbFrom(k, digit_poly, i);
                own = true;
                break;
            }
        }
        if (!own)
            out.copyLimbFrom(k, converted, mi++);
    }
    return out;
}

RnsPoly
fusedModUpEval(const FheContext &ctx, const RnsPoly &d_eval,
               const RnsPoly &d_coeff, u32 digit, u32 level)
{
    CROPHE_ASSERT(d_eval.rep() == Rep::Eval, "fused ModUp: d must be Eval");
    CROPHE_ASSERT(d_coeff.rep() == Rep::Coeff,
                  "fused ModUp: d_coeff must be Coeff");
    auto digit_limbs = ctx.digitLimbs(digit, level);
    auto target = ctx.qpBasis(level);

    RnsPoly digit_poly = d_coeff.restrictedTo(digit_limbs);
    RnsPoly out(ctx, target, Rep::Eval);

    // The digit's own limbs come straight from the Eval-domain input:
    // the unfused path would iNTT and then NTT them back unchanged.
    // Everything else is BConv'd from the Coeff-domain digit into the
    // output slab and forward-transformed in place.
    std::vector<u32> missing;       // global modulus indices to convert
    std::vector<u64 *> missing_rows;  // their rows in the output slab
    const auto &d_basis = d_eval.basis();
    for (u32 k = 0; k < target.size(); ++k) {
        bool own = false;
        for (u32 i = 0; i < digit_limbs.size(); ++i) {
            if (digit_limbs[i] == target[k]) {
                auto it = std::find(d_basis.begin(), d_basis.end(),
                                    target[k]);
                CROPHE_ASSERT(it != d_basis.end(),
                              "digit limb missing from d_eval");
                out.copyLimbFrom(
                    k, d_eval, static_cast<u32>(it - d_basis.begin()));
                own = true;
                break;
            }
        }
        if (!own) {
            missing.push_back(target[k]);
            missing_rows.push_back(out.limb(k).data());
        }
    }

    const BaseConverter &conv = ctx.converter(digit_limbs, missing);
    conv.convertInto(digit_poly, missing_rows.data());
    // Converted limbs all have distinct moduli, so they transform
    // independently (no shared-twiddle batch to form here).
    parallelFor(0, missing.size(), [&](u64 i) {
        ctx.ntt(missing[i]).forward(missing_rows[i]);
    });
    return out;
}

RnsPoly
modDown(const FheContext &ctx, const RnsPoly &in, u32 level)
{
    CROPHE_ASSERT(in.rep() == Rep::Coeff, "ModDown requires Coeff rep");
    CROPHE_ASSERT(in.basis() == ctx.qpBasis(level), "unexpected basis");

    auto q_basis = ctx.qBasis(level);
    auto p_basis = ctx.pBasis();

    RnsPoly p_part = in.restrictedTo(p_basis);
    const BaseConverter &conv = ctx.converter(p_basis, q_basis);
    RnsPoly p_in_q = conv.convert(p_part);

    const auto &kt = kernels::table();
    RnsPoly out(ctx, q_basis, Rep::Coeff);
    parallelFor(0, q_basis.size(), [&](u64 i) {
        const Modulus &qi = ctx.mod(q_basis[i]);
        u64 p_inv = qi.inv(ctx.bigP().modSmall(qi.value()));
        out.copyLimbFrom(static_cast<u32>(i), in, static_cast<u32>(i));
        u64 *dst = out.limb(i).data();
        kt.subMod(dst, p_in_q.limb(i).data(), in.n(), qi.value());
        kt.mulScalarShoup(dst, in.n(), qi.value(), p_inv,
                          shoupQuotient(p_inv, qi.value()));
    });
    return out;
}

std::pair<RnsPoly, RnsPoly>
modDownEvalPair(const FheContext &ctx, const RnsPoly &b, const RnsPoly &a,
                u32 level)
{
    CROPHE_ASSERT(b.rep() == Rep::Eval && a.rep() == Rep::Eval,
                  "Eval-domain ModDown requires Eval rep");
    CROPHE_ASSERT(b.basis() == ctx.qpBasis(level) && a.basis() == b.basis(),
                  "unexpected basis");

    auto q_basis = ctx.qBasis(level);
    auto p_basis = ctx.pBasis();
    const u32 nq = static_cast<u32>(q_basis.size());
    const u32 np = static_cast<u32>(p_basis.size());
    const u64 n = b.n();

    // Stage 1: inverse-transform only the special-modulus limbs; b and a
    // share each modulus, so the pair goes through one batched call.
    RnsPoly pb(ctx, p_basis, Rep::Coeff);
    RnsPoly pa(ctx, p_basis, Rep::Coeff);
    parallelFor(0, np, [&](u64 i) {
        const u32 src = nq + static_cast<u32>(i);
        pb.copyLimbFrom(static_cast<u32>(i), b, src);
        pa.copyLimbFrom(static_cast<u32>(i), a, src);
        u64 *rows[2] = {pb.limb(static_cast<u32>(i)).data(),
                        pa.limb(static_cast<u32>(i)).data()};
        ctx.ntt(p_basis[i]).inverseBatched(rows, 2);
    });

    // Stage 2: BConv the P parts down to the q basis (Coeff domain).
    const BaseConverter &conv = ctx.converter(p_basis, q_basis);
    RnsPoly cb = conv.convert(pb);
    RnsPoly ca = conv.convert(pa);

    // Stage 3: forward-transform the converted rows (pair-batched per
    // modulus) and finish in the Eval domain. Subtraction and the P⁻¹
    // scaling are pointwise linear maps, so doing them after the NTT is
    // bit-identical to the Coeff-domain reference.
    const auto &kt = kernels::table();
    RnsPoly out_b(ctx, q_basis, Rep::Eval);
    RnsPoly out_a(ctx, q_basis, Rep::Eval);
    parallelFor(0, nq, [&](u64 i) {
        const u32 k = static_cast<u32>(i);
        u64 *rows[2] = {cb.limb(k).data(), ca.limb(k).data()};
        ctx.ntt(q_basis[i]).forwardBatched(rows, 2);

        const Modulus &qi = ctx.mod(q_basis[i]);
        const u64 p_inv = qi.inv(ctx.bigP().modSmall(qi.value()));
        const u64 p_inv_shoup = shoupQuotient(p_inv, qi.value());
        out_b.copyLimbFrom(k, b, k);
        out_a.copyLimbFrom(k, a, k);
        kt.subMod(out_b.limb(k).data(), rows[0], n, qi.value());
        kt.mulScalarShoup(out_b.limb(k).data(), n, qi.value(), p_inv,
                          p_inv_shoup);
        kt.subMod(out_a.limb(k).data(), rows[1], n, qi.value());
        kt.mulScalarShoup(out_a.limb(k).data(), n, qi.value(), p_inv,
                          p_inv_shoup);
    });
    return {std::move(out_b), std::move(out_a)};
}

RnsPoly
rescalePoly(const FheContext &ctx, const RnsPoly &in, u32 level)
{
    CROPHE_ASSERT(in.rep() == Rep::Coeff, "rescale requires Coeff rep");
    CROPHE_ASSERT(level >= 1, "cannot rescale at level 0");
    CROPHE_ASSERT(in.basis() == ctx.qBasis(level), "unexpected basis");

    auto out_basis = ctx.qBasis(level - 1);
    const Modulus &ql = ctx.mod(level);

    RnsPoly out(ctx, out_basis, Rep::Coeff);
    auto last = in.limb(level);
    parallelFor(0, out_basis.size(), [&](u64 i) {
        const Modulus &qi = ctx.mod(out_basis[i]);
        u64 ql_inv = qi.inv(qi.reduce64(ql.value()));
        auto src = in.limb(i);
        auto dst = out.limb(i);
        for (u64 c = 0; c < in.n(); ++c) {
            // (x - [x]_{q_l}) / q_l mod q_i, with the centered lift of
            // [x]_{q_l} to reduce rounding bias.
            u64 r = last[c];
            u64 r_mod = qi.reduce64(r);
            dst[c] = qi.mul(qi.sub(src[c], r_mod), ql_inv);
        }
    });
    return out;
}

}  // namespace crophe::fhe
