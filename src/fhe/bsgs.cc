#include "fhe/bsgs.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/math_util.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"

namespace crophe::fhe {

std::vector<i64>
requiredRotations(u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb)
{
    std::vector<i64> rots;
    switch (strategy) {
      case RotStrategy::MinKs:
        rots.push_back(1);
        break;
      case RotStrategy::Hoisting:
      case RotStrategy::TripleHoisted:
        // TripleHoisted reuses Hoisting's key set: one evk per baby-step
        // distance (the extra hoisting lives in the dataflow, not the keys).
        for (u32 i = 1; i < n1; ++i)
            rots.push_back(i);
        break;
      case RotStrategy::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1 && r_hyb <= n1, "bad r_hyb ", r_hyb);
        u32 coarse = ceilDiv(n1, r_hyb) - 1;
        if (coarse > 0)
            rots.push_back(r_hyb);
        for (u32 f = 1; f < r_hyb; ++f)
            rots.push_back(f);
        break;
      }
    }
    // Giant steps always need strides n1·j, j = 1…n2-1.
    for (u32 j = 1; j < n2; ++j)
        rots.push_back(static_cast<i64>(n1) * j);
    std::sort(rots.begin(), rots.end());
    rots.erase(std::unique(rots.begin(), rots.end()), rots.end());
    return rots;
}

std::vector<Ciphertext>
babySteps(const Evaluator &eval, const Ciphertext &ct, u32 n1,
          RotStrategy strategy, u32 r_hyb, const BsgsKeys &keys)
{
    std::vector<Ciphertext> out(n1);
    out[0] = ct;
    switch (strategy) {
      case RotStrategy::MinKs: {
        const KswKey &k1 = keys.rot.at(1);
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.rotate(out[i - 1], 1, k1);
        break;
      }
      case RotStrategy::Hoisting:
      case RotStrategy::TripleHoisted: {
        // One shared Decomp/ModUp: ct.a is decomposed and raised to the
        // extended basis once, then every baby-step rotation reads the
        // precomputed digits through its permutation (decrypt-equivalent
        // to eval.rotate; the permuted-lift difference is absorbed by
        // key-switch noise).
        if (n1 < 2)
            break;
        auto digits = eval.hoistedDecompModUp(ct.a, ct.level);
        for (u32 i = 1; i < n1; ++i)
            out[i] = eval.hoistedRotate(ct, digits, i, keys.rot.at(i));
        break;
      }
      case RotStrategy::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1 && r_hyb <= n1, "bad r_hyb ", r_hyb);
        // Coarse Min-KS chain at stride r_hyb; each coarse ciphertext is
        // decomposed and raised once, and its group's fine steps and the
        // next coarse step are all hoisted rotations of those digits.
        for (u32 c = 0; c < n1; c += r_hyb) {
            const bool next = c + r_hyb < n1;
            if (!next && c + 1 >= n1)
                break;  // a lone last member rotates nothing
            auto digits = eval.hoistedDecompModUp(out[c].a, out[c].level);
            for (u32 f = 1; f < r_hyb && c + f < n1; ++f)
                out[c + f] =
                    eval.hoistedRotate(out[c], digits, f, keys.rot.at(f));
            if (next)
                out[c + r_hyb] = eval.hoistedRotate(out[c], digits, r_hyb,
                                                    keys.rot.at(r_hyb));
        }
        break;
      }
    }
    return out;
}

std::vector<std::vector<double>>
matrixDiagonals(const std::vector<std::vector<double>> &m, u64 slots)
{
    const u64 s = m.size();
    CROPHE_ASSERT(slots % s == 0, "matrix size must divide slot count");
    std::vector<std::vector<double>> diags(s, std::vector<double>(slots));
    for (u64 d = 0; d < s; ++d) {
        for (u64 i = 0; i < slots; ++i)
            diags[d][i] = m[i % s][(i + d) % s];
    }
    return diags;
}

std::vector<double>
matVecRef(const std::vector<std::vector<double>> &m,
          const std::vector<double> &x)
{
    const u64 s = m.size();
    std::vector<double> y(s, 0.0);
    for (u64 i = 0; i < s; ++i)
        for (u64 j = 0; j < s; ++j)
            y[i] += m[i][j] * x[j];
    return y;
}

namespace {

/** Cyclic right-shift of a slot vector by @p amount (i.e., Rot_{-amount}). */
std::vector<double>
rotateRight(const std::vector<double> &v, u64 amount)
{
    const u64 n = v.size();
    amount %= n;
    std::vector<double> out(n);
    for (u64 i = 0; i < n; ++i)
        out[(i + amount) % n] = v[i];
    return out;
}

/**
 * Σ_i cts[i] ⊙ encode(Rot_{-stride}(diagonals[stride + i])): one giant
 * group's plaintext sum, accumulated where it is produced. The encoded
 * diagonals are the inner product's d rows and the ciphertext halves its
 * key rows; bit-identical to mulPlain per term followed by add in term
 * order. The n1 plaintexts live only for this call, so they are freed
 * before the giant-step rotation runs.
 */
Ciphertext
giantGroupSum(const Evaluator &eval, const std::vector<Ciphertext> &cts,
              const std::vector<std::vector<double>> &diagonals, u64 stride)
{
    std::vector<Plaintext> pts;
    pts.reserve(cts.size());
    std::vector<const RnsPoly *> d, kb, ka;
    for (u64 i = 0; i < cts.size(); ++i) {
        pts.push_back(eval.encoder().encodeReal(
            rotateRight(diagonals[stride + i], stride), cts[i].level));
        d.push_back(&pts.back().poly);
        kb.push_back(&cts[i].b);
        ka.push_back(&cts[i].a);
    }
    Ciphertext out;
    out.level = cts[0].level;
    out.scale = cts[0].scale * pts[0].scale;
    std::tie(out.b, out.a) = innerProductRows(eval.context(), d, kb, ka);
    return out;
}

}  // namespace

Ciphertext
ptMatVecMult(const Evaluator &eval, const Ciphertext &ct,
             const std::vector<std::vector<double>> &diagonals, u32 n1,
             u32 n2, RotStrategy strategy, u32 r_hyb, const BsgsKeys &keys)
{
    const u64 s = static_cast<u64>(n1) * n2;
    CROPHE_ASSERT(diagonals.size() == s, "need one diagonal per offset");

    auto cts = babySteps(eval, ct, n1, strategy, r_hyb, keys);

    const bool deferred = strategy == RotStrategy::TripleHoisted;
    const FheContext &ctx = eval.context();

    // TripleHoisted: the giant-step key-switch inner products accumulate
    // here, in the extended qp basis, so that ModDown runs once at the
    // end instead of once per giant step (n2-1 ModDowns → 1).
    bool have_acc = false;
    RnsPoly acc_b, acc_a;

    Ciphertext out;
    for (u32 j = 0; j < n2; ++j) {
        const u64 stride = static_cast<u64>(n1) * j;
        Ciphertext r = giantGroupSum(eval, cts, diagonals, stride);
        if (j == 0) {
            out = std::move(r);
            continue;
        }
        const KswKey &gk = keys.rot.at(static_cast<i64>(stride));
        if (!deferred) {
            r = eval.rotate(r, static_cast<i64>(stride), gk);
            out.b.addInplace(r.b);
            out.a.addInplace(r.a);
            continue;
        }
        // The hoisted digits of r.a are read through ψ inside the inner
        // product; only ψ(r.b) enters the running sum now, and the
        // key-switch (b, a) contribution arrives after the hoisted
        // ModDown.
        const u64 g = galoisElementForRotation(static_cast<i64>(stride),
                                               ctx.n());
        auto [ip_b, ip_a] =
            eval.hoistedInnerProd(eval.hoistedDecompModUp(r.a, r.level), gk,
                                  ctx.autEvalTable(g).data());
        if (!have_acc) {
            acc_b = std::move(ip_b);
            acc_a = std::move(ip_a);
            have_acc = true;
        } else {
            acc_b.addInplace(ip_b);
            acc_a.addInplace(ip_a);
        }
        out.b.addInplace(applyAutomorphism(r.b, g));
    }
    if (have_acc) {
        auto [md_b, md_a] = modDownEvalPair(ctx, acc_b, acc_a, out.level);
        out.b.addInplace(md_b);
        out.a.addInplace(md_a);
    }
    return eval.rescale(out);
}

RotCost
babyStepCost(u32 n1, RotStrategy strategy, u32 r_hyb)
{
    switch (strategy) {
      case RotStrategy::MinKs:
        return {n1 - 1, 1};
      case RotStrategy::Hoisting:
      case RotStrategy::TripleHoisted:
        return {n1 > 1 ? 1u : 0u, n1 - 1};
      case RotStrategy::Hybrid: {
        CROPHE_ASSERT(r_hyb >= 1 && r_hyb <= n1, "bad r_hyb ", r_hyb);
        u32 coarse = ceilDiv(n1, r_hyb) - 1;
        // Every coarse group that rotates anything shares one ModUp: the
        // groups before the last feed the next coarse step, and the last
        // one only if it has fine steps (at least two members).
        u32 pairs = coarse + (n1 - coarse * r_hyb > 1 ? 1 : 0);
        u32 evk = (r_hyb - 1) + (coarse > 0 ? 1 : 0);
        return {pairs, evk};
      }
    }
    CROPHE_PANIC("unreachable");
}

}  // namespace crophe::fhe
