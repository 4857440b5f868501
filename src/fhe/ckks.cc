#include "fhe/ckks.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "fhe/automorphism.h"
#include "fhe/kernels/kernels.h"

namespace crophe::fhe {

namespace {

/** Sample a small signed polynomial into Coeff rep over @p basis. */
RnsPoly
sampleSigned(const FheContext &ctx, const std::vector<u32> &basis, Rng &rng,
             bool ternary)
{
    RnsPoly poly(ctx, basis, Rep::Coeff);
    const u64 n = ctx.n();
    // Draw coefficients serially (the RNG stream order must not depend on
    // thread count); the per-limb reductions of the fixed draw are
    // independent and run in parallel.
    std::vector<i64> coeffs(n);
    for (u64 i = 0; i < n; ++i)
        coeffs[i] = ternary ? rng.nextTernary() : rng.nextNoise();
    parallelFor(0, poly.limbCount(), [&](u64 l) {
        const Modulus &m = poly.mod(l);
        for (u64 i = 0; i < n; ++i) {
            i64 c = coeffs[i];
            poly.limb(l)[i] =
                c >= 0 ? m.reduce64(static_cast<u64>(c))
                       : m.neg(m.reduce64(static_cast<u64>(-c)));
        }
    });
    return poly;
}

}  // namespace

Evaluator::Evaluator(const FheContext &ctx, u64 seed)
    : ctx_(&ctx), encoder_(ctx), rng_(seed)
{
}

Ciphertext
Evaluator::encrypt(const Plaintext &pt, const PublicKey &pk)
{
    auto basis = ctx_->qBasis(pt.level);
    RnsPoly u = sampleSigned(*ctx_, basis, rng_, true);
    u.toEval();
    RnsPoly e0 = sampleSigned(*ctx_, basis, rng_, false);
    e0.toEval();
    RnsPoly e1 = sampleSigned(*ctx_, basis, rng_, false);
    e1.toEval();

    Ciphertext ct;
    ct.scale = pt.scale;
    ct.level = pt.level;
    ct.b = pk.b.restrictedTo(basis);
    ct.b.mulEwInplace(u);
    ct.b.addInplace(e0);
    ct.b.addInplace(pt.poly);
    ct.a = pk.a.restrictedTo(basis);
    ct.a.mulEwInplace(u);
    ct.a.addInplace(e1);
    return ct;
}

Ciphertext
Evaluator::encryptSymmetric(const Plaintext &pt, const SecretKey &sk)
{
    auto basis = ctx_->qBasis(pt.level);
    Ciphertext ct;
    ct.scale = pt.scale;
    ct.level = pt.level;
    ct.a = RnsPoly(*ctx_, basis, Rep::Eval);
    ct.a.uniformRandom(rng_);
    RnsPoly e = sampleSigned(*ctx_, basis, rng_, false);
    e.toEval();

    RnsPoly s_q = sk.s.restrictedTo(basis);
    ct.b = ct.a;
    ct.b.mulEwInplace(s_q);
    ct.b.negateInplace();
    ct.b.addInplace(e);
    ct.b.addInplace(pt.poly);
    return ct;
}

Plaintext
Evaluator::decrypt(const Ciphertext &ct, const SecretKey &sk) const
{
    auto basis = ctx_->qBasis(ct.level);
    RnsPoly s_q = sk.s.restrictedTo(basis);
    Plaintext pt;
    pt.scale = ct.scale;
    pt.level = ct.level;
    pt.poly = ct.a;
    pt.poly.mulEwInplace(s_q);
    pt.poly.addInplace(ct.b);
    return pt;
}

Ciphertext
Evaluator::add(const Ciphertext &c0, const Ciphertext &c1) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HAdd level mismatch");
    CROPHE_ASSERT(std::abs(c0.scale / c1.scale - 1.0) < 1e-9,
                  "HAdd scale mismatch: ", c0.scale, " vs ", c1.scale);
    Ciphertext out = c0;
    out.b.addInplace(c1.b);
    out.a.addInplace(c1.a);
    return out;
}

Ciphertext
Evaluator::sub(const Ciphertext &c0, const Ciphertext &c1) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HSub level mismatch");
    Ciphertext out = c0;
    out.b.subInplace(c1.b);
    out.a.subInplace(c1.a);
    return out;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    CROPHE_ASSERT(ct.level == pt.level, "PAdd level mismatch");
    Ciphertext out = ct;
    out.b.addInplace(pt.poly);
    return out;
}

Ciphertext
Evaluator::mulPlain(const Ciphertext &ct, const Plaintext &pt) const
{
    CROPHE_ASSERT(ct.level == pt.level, "PMult level mismatch");
    Ciphertext out = ct;
    out.b.mulEwInplace(pt.poly);
    out.a.mulEwInplace(pt.poly);
    out.scale = ct.scale * pt.scale;
    return out;
}

Ciphertext
Evaluator::addConst(const Ciphertext &ct, double c) const
{
    // Encode the constant into every slot at the ciphertext's scale.
    std::vector<double> v(ctx_->n() / 2, c);
    Plaintext pt = encoder_.encodeReal(v, ct.level, ct.scale);
    return addPlain(ct, pt);
}

Ciphertext
Evaluator::mulConst(const Ciphertext &ct, double c) const
{
    Ciphertext out = ct;
    double scaled = c * ctx_->defaultScale();
    bool negative = scaled < 0;
    u64 ci = static_cast<u64>(std::llround(std::abs(scaled)));
    out.b.mulConstInplace(ci);
    out.a.mulConstInplace(ci);
    if (negative) {
        out.b.negateInplace();
        out.a.negateInplace();
    }
    out.scale = ct.scale * ctx_->defaultScale();
    return out;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitch(const RnsPoly &d, u32 level, const KswKey &key) const
{
    // The accumulators never leave the Eval domain: ModDown inverse-
    // transforms only the P limbs and returns the pair already in Eval.
    auto [acc_b, acc_a] = hoistedInnerProd(hoistedDecompModUp(d, level), key);
    return modDownEvalPair(*ctx_, acc_b, acc_a, level);
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keySwitchUnfused(const RnsPoly &d, u32 level,
                            const KswKey &key) const
{
    CROPHE_ASSERT(d.rep() == Rep::Eval, "keySwitch expects Eval input");
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();

    auto qp = ctx_->qpBasis(level);
    RnsPoly acc_b(*ctx_, qp, Rep::Eval);
    RnsPoly acc_a(*ctx_, qp, Rep::Eval);

    const u32 beta = ctx_->digitCount(level);
    CROPHE_ASSERT(beta <= key.digitCount(), "key has too few digits");
    std::vector<std::unique_ptr<std::pair<RnsPoly, RnsPoly>>> parts(beta);
    parallelFor(0, beta, [&](u64 j) {
        RnsPoly up = modUpDigit(*ctx_, d_coeff, static_cast<u32>(j),
                                level);  // Coeff, qp
        up.toEval();
        RnsPoly kb = key.b[j].restrictedTo(qp);
        RnsPoly ka = key.a[j].restrictedTo(qp);
        kb.mulEwInplace(up);
        ka.mulEwInplace(up);
        parts[j] = std::make_unique<std::pair<RnsPoly, RnsPoly>>(
            std::move(kb), std::move(ka));
    });
    for (u32 j = 0; j < beta; ++j) {
        acc_b.addInplace(parts[j]->first);
        acc_a.addInplace(parts[j]->second);
    }

    acc_b.toCoeff();
    acc_a.toCoeff();
    RnsPoly out_b = modDown(*ctx_, acc_b, level);
    RnsPoly out_a = modDown(*ctx_, acc_a, level);
    out_b.toEval();
    out_a.toEval();
    return {std::move(out_b), std::move(out_a)};
}

std::vector<RnsPoly>
Evaluator::hoistedDecompModUp(const RnsPoly &d, u32 level) const
{
    CROPHE_ASSERT(d.rep() == Rep::Eval, "hoisted ModUp expects Eval input");
    RnsPoly d_coeff = d;
    d_coeff.toCoeff();
    const u32 beta = ctx_->digitCount(level);
    std::vector<RnsPoly> digits(beta);
    parallelFor(0, beta, [&](u64 j) {
        digits[j] = fusedModUpEval(*ctx_, d, d_coeff, static_cast<u32>(j),
                                   level);
    });
    return digits;
}

std::pair<RnsPoly, RnsPoly>
innerProductRows(const FheContext &ctx, const std::vector<const RnsPoly *> &d,
                 const std::vector<const RnsPoly *> &kb,
                 const std::vector<const RnsPoly *> &ka, const u64 *perm)
{
    const u64 rows = d.size();
    // The kernel sums the row products of two residues below 2^60 in
    // 128 bits.
    CROPHE_ASSERT(rows >= 1 && rows < 256 && kb.size() == rows &&
                      ka.size() == rows,
                  "inner product needs 1..255 rows");
    const std::vector<u32> &basis = d[0]->basis();
    RnsPoly acc_b(ctx, basis, Rep::Eval);
    RnsPoly acc_a(ctx, basis, Rep::Eval);
    const auto &kt = kernels::table();
    // Output-stationary: one kernel call per limb reads that limb of
    // every row (the d rows through @p perm when set), in place with no
    // copies, and reduces each output once. Limbs are independent, and
    // the result equals the per-row multiply-then-add flow bit for bit.
    parallelFor(0, basis.size(), [&](u64 l) {
        auto limbOf = [&](const RnsPoly &p) {
            const std::vector<u32> &pb = p.basis();
            auto it = std::find(pb.begin(), pb.end(), basis[l]);
            CROPHE_ASSERT(it != pb.end(), "row lacks modulus ", basis[l]);
            return p.limb(static_cast<u32>(it - pb.begin())).data();
        };
        std::vector<const u64 *> dl(rows), kbl(rows), kal(rows);
        for (u64 j = 0; j < rows; ++j) {
            dl[j] = d[j]->limb(static_cast<u32>(l)).data();
            kbl[j] = limbOf(*kb[j]);
            kal[j] = limbOf(*ka[j]);
        }
        const Modulus &m = ctx.mod(basis[l]);
        const kernels::BarrettView q{m.value(), m.barrettLo(),
                                     m.barrettHi()};
        kt.kskInnerProd(acc_b.limb(static_cast<u32>(l)).data(),
                        acc_a.limb(static_cast<u32>(l)).data(), dl.data(),
                        perm, kbl.data(), kal.data(), rows, ctx.n(), q);
    });
    return {std::move(acc_b), std::move(acc_a)};
}

std::pair<RnsPoly, RnsPoly>
Evaluator::hoistedInnerProd(const std::vector<RnsPoly> &digits,
                            const KswKey &key, const u64 *perm) const
{
    const u32 beta = static_cast<u32>(digits.size());
    CROPHE_ASSERT(beta >= 1 && beta <= key.digitCount(),
                  "digit count mismatch in hoisted inner product");
    std::vector<const RnsPoly *> d(beta), kb(beta), ka(beta);
    for (u32 j = 0; j < beta; ++j) {
        d[j] = &digits[j];
        kb[j] = &key.b[j];
        ka[j] = &key.a[j];
    }
    return innerProductRows(*ctx_, d, kb, ka, perm);
}

Ciphertext
Evaluator::hoistedRotate(const Ciphertext &ct,
                         const std::vector<RnsPoly> &digits, i64 r,
                         const KswKey &rk) const
{
    const u64 g = galoisElementForRotation(r, ctx_->n());
    // The inner product reads each hoisted digit through the Eval-domain
    // automorphism table, so ψ replaces the per-rotation Decomp + ModUp
    // without a permuted copy of any digit. ψ does not commute with ModUp
    // bit for bit (ψ flips signs and the BConv of a canonical
    // representative is not odd-symmetric), so the extended limbs differ
    // from the eager path by multiples of the digit modulus, which
    // key-switch noise absorbs.
    auto [ip_b, ip_a] =
        hoistedInnerProd(digits, rk, ctx_->autEvalTable(g).data());
    auto [ks_b, ks_a] = modDownEvalPair(*ctx_, ip_b, ip_a, ct.level);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = applyAutomorphism(ct.b, g);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

Ciphertext
Evaluator::mul(const Ciphertext &c0, const Ciphertext &c1,
               const KswKey &rlk) const
{
    CROPHE_ASSERT(c0.level == c1.level, "HMult level mismatch");

    RnsPoly d0 = c0.b;
    d0.mulEwInplace(c1.b);
    RnsPoly d1 = c0.a;
    d1.mulEwInplace(c1.b);
    RnsPoly t = c0.b;
    t.mulEwInplace(c1.a);
    d1.addInplace(t);
    RnsPoly d2 = c0.a;
    d2.mulEwInplace(c1.a);

    auto [ks_b, ks_a] = keySwitch(d2, c0.level, rlk);

    Ciphertext out;
    out.level = c0.level;
    out.scale = c0.scale * c1.scale;
    out.b = std::move(d0);
    out.b.addInplace(ks_b);
    out.a = std::move(d1);
    out.a.addInplace(ks_a);
    return out;
}

Ciphertext
Evaluator::rescale(const Ciphertext &ct) const
{
    CROPHE_ASSERT(ct.level >= 1, "cannot rescale at level 0");
    Ciphertext out;
    out.level = ct.level - 1;
    out.scale = ct.scale / static_cast<double>(ctx_->modValue(ct.level));

    RnsPoly b = ct.b;
    b.toCoeff();
    out.b = rescalePoly(*ctx_, b, ct.level);
    out.b.toEval();

    RnsPoly a = ct.a;
    a.toCoeff();
    out.a = rescalePoly(*ctx_, a, ct.level);
    out.a.toEval();
    return out;
}

Ciphertext
Evaluator::levelDown(const Ciphertext &ct, u32 target_level) const
{
    CROPHE_ASSERT(target_level <= ct.level, "levelDown cannot raise level");
    Ciphertext out;
    out.level = target_level;
    out.scale = ct.scale;
    auto basis = ctx_->qBasis(target_level);
    out.b = ct.b.restrictedTo(basis);
    out.a = ct.a.restrictedTo(basis);
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext &ct, i64 r, const KswKey &rk) const
{
    u64 g = galoisElementForRotation(r, ctx_->n());
    RnsPoly b_rot = applyAutomorphism(ct.b, g);
    RnsPoly a_rot = applyAutomorphism(ct.a, g);

    auto [ks_b, ks_a] = keySwitch(a_rot, ct.level, rk);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = std::move(b_rot);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

Ciphertext
Evaluator::conjugate(const Ciphertext &ct, const KswKey &ck) const
{
    u64 g = galoisElementForConjugation(ctx_->n());
    RnsPoly b_conj = applyAutomorphism(ct.b, g);
    RnsPoly a_conj = applyAutomorphism(ct.a, g);

    auto [ks_b, ks_a] = keySwitch(a_conj, ct.level, ck);

    Ciphertext out;
    out.level = ct.level;
    out.scale = ct.scale;
    out.b = std::move(b_conj);
    out.b.addInplace(ks_b);
    out.a = std::move(ks_a);
    return out;
}

}  // namespace crophe::fhe
