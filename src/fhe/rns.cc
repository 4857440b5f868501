#include "fhe/rns.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/parallel.h"
#include "fhe/automorphism.h"
#include "fhe/bconv.h"
#include "fhe/kernels/autotune.h"
#include "fhe/kernels/kernels.h"
#include "fhe/primes.h"

namespace crophe::fhe {

namespace {

inline kernels::BarrettView
barrettView(const Modulus &m)
{
    return {m.value(), m.barrettLo(), m.barrettHi()};
}

}  // namespace

FheContext::FheContext(const FheContextParams &params)
    : n_(params.n),
      levels_(params.levels),
      alpha_(params.alpha),
      dnum_(ceilDiv(params.levels + 1, params.alpha)),
      scale_(params.scale)
{
    CROPHE_ASSERT(isPow2(n_), "N must be a power of two, got ", n_);
    CROPHE_ASSERT(alpha_ >= 1, "alpha must be positive");

    // q_0 (largest, holds the final message), q_1..q_L (scaling primes),
    // then p_0..p_{alpha-1} (special primes). All distinct.
    std::vector<u64> used;
    auto q0 = generateNttPrimes(params.firstModulusBits, n_, 1, used);
    used.insert(used.end(), q0.begin(), q0.end());
    auto qi = generateNttPrimes(params.scalingModulusBits, n_, levels_, used);
    used.insert(used.end(), qi.begin(), qi.end());
    auto pj = generateNttPrimes(params.specialModulusBits, n_, alpha_, used);

    std::vector<u64> all;
    all.push_back(q0[0]);
    all.insert(all.end(), qi.begin(), qi.end());
    all.insert(all.end(), pj.begin(), pj.end());

    for (u64 q : all) {
        moduli_.emplace_back(q);
        ntt_.push_back(std::make_unique<NttTables>(n_, moduli_.back()));
    }
    bigP_ = productOf(pj);

    // Pre-tune the batched-NTT tile for the key-switch hot path so the
    // first keySwitch on this context doesn't pay the measurement. Tile
    // choice only ever affects speed, never results.
    kernels::autotuner().prepare(n_);
}

FheContext::~FheContext() = default;

std::vector<u32>
FheContext::qBasis(u32 level) const
{
    CROPHE_ASSERT(level <= levels_, "level out of range: ", level);
    std::vector<u32> basis(level + 1);
    for (u32 i = 0; i <= level; ++i)
        basis[i] = i;
    return basis;
}

std::vector<u32>
FheContext::pBasis() const
{
    std::vector<u32> basis(alpha_);
    for (u32 i = 0; i < alpha_; ++i)
        basis[i] = qCount() + i;
    return basis;
}

std::vector<u32>
FheContext::qpBasis(u32 level) const
{
    auto basis = qBasis(level);
    auto p = pBasis();
    basis.insert(basis.end(), p.begin(), p.end());
    return basis;
}

std::vector<u32>
FheContext::digitLimbs(u32 j, u32 level) const
{
    std::vector<u32> limbs;
    for (u32 i = j * alpha_; i < (j + 1) * alpha_ && i <= level; ++i)
        limbs.push_back(i);
    CROPHE_ASSERT(!limbs.empty(), "digit ", j, " empty at level ", level);
    return limbs;
}

BigUInt
FheContext::bigQ(u32 level) const
{
    std::vector<u64> qs;
    for (u32 i = 0; i <= level; ++i)
        qs.push_back(moduli_[i].value());
    return productOf(qs);
}

const BaseConverter &
FheContext::converter(const std::vector<u32> &from,
                      const std::vector<u32> &to) const
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    auto key = std::make_pair(from, to);
    auto it = convCache_.find(key);
    if (it == convCache_.end()) {
        it = convCache_
                 .emplace(std::move(key),
                          std::make_unique<BaseConverter>(*this, from, to))
                 .first;
    }
    return *it->second;
}

const AlignedVec<u64> &
FheContext::autEvalTable(u64 galois) const
{
    std::lock_guard<std::mutex> lock(cacheMu_);
    auto it = autCache_.find(galois);
    if (it == autCache_.end()) {
        auto table = evalAutomorphismTable(galois, n_);
        auto stored = std::make_unique<AlignedVec<u64>>();
        stored->assign(table.size());
        std::copy(table.begin(), table.end(), stored->data());
        it = autCache_.emplace(galois, std::move(stored)).first;
    }
    return *it->second;
}

RnsPoly::RnsPoly(const FheContext &ctx, std::vector<u32> basis, Rep rep)
    : ctx_(&ctx), rep_(rep), basis_(std::move(basis))
{
    // Round the row stride up to a cache line so every limb row starts
    // 64-byte aligned in the slab.
    stride_ = (ctx.n() + 7) & ~static_cast<u64>(7);
    data_.assign(basis_.size() * stride_);
}

void
RnsPoly::copyLimbFrom(u32 dst_limb, const RnsPoly &src, u32 src_limb)
{
    auto d = limb(dst_limb);
    auto s = src.limb(src_limb);
    CROPHE_ASSERT(d.size() == s.size(), "limb size mismatch in copy");
    std::copy(s.begin(), s.end(), d.begin());
}

void
RnsPoly::addInplace(const RnsPoly &other)
{
    CROPHE_ASSERT(basis_ == other.basis_ && rep_ == other.rep_,
                  "basis/representation mismatch in add");
    const auto &kt = kernels::table();
    // Limbs are independent: one chunk per limb, disjoint writes.
    parallelFor(0, limbCount(), [&](u64 i) {
        kt.addMod(limb(i).data(), other.limb(i).data(), n(),
                  mod(i).value());
    });
}

void
RnsPoly::subInplace(const RnsPoly &other)
{
    CROPHE_ASSERT(basis_ == other.basis_ && rep_ == other.rep_,
                  "basis/representation mismatch in sub");
    const auto &kt = kernels::table();
    parallelFor(0, limbCount(), [&](u64 i) {
        kt.subMod(limb(i).data(), other.limb(i).data(), n(),
                  mod(i).value());
    });
}

void
RnsPoly::negateInplace()
{
    const auto &kt = kernels::table();
    parallelFor(0, limbCount(),
                [&](u64 i) { kt.negMod(limb(i).data(), n(), mod(i).value()); });
}

void
RnsPoly::mulEwInplace(const RnsPoly &other)
{
    CROPHE_ASSERT(basis_ == other.basis_, "basis mismatch in mul");
    CROPHE_ASSERT(rep_ == Rep::Eval && other.rep_ == Rep::Eval,
                  "element-wise multiply requires Eval representation");
    const auto &kt = kernels::table();
    parallelFor(0, limbCount(), [&](u64 i) {
        kernels::BarrettView b = barrettView(mod(i));
        kt.mulModBarrett(limb(i).data(), other.limb(i).data(), n(), b);
    });
}

void
RnsPoly::mulScalarInplace(const std::vector<u64> &scalar_per_limb)
{
    CROPHE_ASSERT(scalar_per_limb.size() == limbCount(),
                  "scalar vector size mismatch");
    const auto &kt = kernels::table();
    parallelFor(0, limbCount(), [&](u64 i) {
        const u64 q = mod(i).value();
        const u64 s = scalar_per_limb[i];
        kt.mulScalarShoup(limb(i).data(), n(), q, s, shoupQuotient(s, q));
    });
}

void
RnsPoly::mulConstInplace(u64 c)
{
    const auto &kt = kernels::table();
    parallelFor(0, limbCount(), [&](u64 i) {
        const Modulus &m = mod(i);
        const u64 s = m.reduce64(c);
        kt.mulScalarShoup(limb(i).data(), n(), m.value(), s,
                          shoupQuotient(s, m.value()));
    });
}

void
RnsPoly::toEval()
{
    CROPHE_ASSERT(rep_ == Rep::Coeff, "already in Eval representation");
    parallelFor(0, limbCount(),
                [&](u64 i) { ctx_->ntt(basis_[i]).forward(limb(i).data()); });
    rep_ = Rep::Eval;
}

void
RnsPoly::toCoeff()
{
    CROPHE_ASSERT(rep_ == Rep::Eval, "already in Coeff representation");
    parallelFor(0, limbCount(),
                [&](u64 i) { ctx_->ntt(basis_[i]).inverse(limb(i).data()); });
    rep_ = Rep::Coeff;
}

void
RnsPoly::dropLastLimb()
{
    CROPHE_ASSERT(limbCount() > 1, "cannot drop the only limb");
    // O(1): the slab keeps its storage; only the logical row count drops.
    basis_.pop_back();
}

RnsPoly
RnsPoly::restrictedTo(const std::vector<u32> &basis) const
{
    RnsPoly out(*ctx_, basis, rep_);
    for (u32 k = 0; k < basis.size(); ++k) {
        auto it = std::find(basis_.begin(), basis_.end(), basis[k]);
        CROPHE_ASSERT(it != basis_.end(),
                      "limb for modulus index ", basis[k], " not present");
        out.copyLimbFrom(k, *this, static_cast<u32>(it - basis_.begin()));
    }
    return out;
}

BigUInt
RnsPoly::reconstructCoeff(u64 coeff_idx) const
{
    CROPHE_ASSERT(rep_ == Rep::Coeff, "reconstruct requires Coeff rep");
    // Standard CRT: x = sum_i [x_i * (M/m_i)^{-1} mod m_i] * (M/m_i) mod M.
    std::vector<u64> mods;
    for (u32 i = 0; i < limbCount(); ++i)
        mods.push_back(mod(i).value());
    BigUInt big_m = productOf(mods);

    BigUInt acc(0);
    for (u32 i = 0; i < limbCount(); ++i) {
        const Modulus &m = mod(i);
        // M/m_i as BigUInt.
        std::vector<u64> others;
        for (u32 k = 0; k < limbCount(); ++k)
            if (k != i)
                others.push_back(mods[k]);
        BigUInt mhat = productOf(others);
        u64 mhat_mod = mhat.modSmall(m.value());
        u64 coef = m.mul(limb(i)[coeff_idx], m.inv(mhat_mod));
        acc.addMulSmall(mhat, coef);
    }
    // acc < limbCount * M; reduce.
    while (!(acc < big_m))
        acc.subInplace(big_m);
    return acc;
}

void
RnsPoly::uniformRandom(crophe::Rng &rng)
{
    // Intentionally serial: the RNG stream order is part of the
    // determinism contract, so sampling must not depend on thread count.
    for (u32 i = 0; i < limbCount(); ++i) {
        u64 q = mod(i).value();
        for (u64 &x : limb(i))
            x = rng.nextBounded(q);
    }
}

}  // namespace crophe::fhe
