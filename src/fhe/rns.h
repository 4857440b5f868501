#ifndef CROPHE_FHE_RNS_H_
#define CROPHE_FHE_RNS_H_

/**
 * @file
 * RNS (residue number system) context and limb-matrix polynomials.
 *
 * A ciphertext polynomial in Z_Q[X]/(X^N+1), Q = q_0…q_ℓ, is held as an
 * (ℓ+1) × N matrix of word-sized limbs (Section II-A). The FheContext owns
 * the RNS bases: q_0…q_L (ciphertext moduli) and p_0…p_{α-1} (the special
 * modulus P used by key-switching), together with the per-modulus NTT
 * tables and digit-decomposition parameters (α, dnum).
 *
 * RnsPoly stores its limb matrix as a single 64-byte-aligned slab with a
 * cache-line-rounded row stride (DESIGN.md §10): limb i occupies
 * [data + i·stride, data + i·stride + N). Rows are handed out as spans,
 * the element-wise operations run through the kernel dispatch layer, and
 * dropping the last limb is O(1) bookkeeping.
 */

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/types.h"
#include "fhe/biguint.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"

namespace crophe::fhe {

class BaseConverter;

/** Parameters used to build an FheContext. */
struct FheContextParams
{
    u64 n = 1 << 10;          ///< polynomial degree (power of two)
    u32 levels = 3;           ///< L: maximum multiplicative level
    u32 alpha = 2;            ///< limbs per key-switching digit
    u32 firstModulusBits = 50;  ///< size of q_0
    u32 scalingModulusBits = 35;  ///< size of q_1…q_L
    u32 specialModulusBits = 50;  ///< size of p_0…p_{α-1}
    double scale = 1ull << 35;    ///< default encoding scale Δ
};

/**
 * Immutable CKKS RNS context: moduli, NTT tables, digit layout.
 *
 * Modulus indexing is global: indices 0…L name q_0…q_L and indices
 * L+1…L+α name p_0…p_{α-1}.
 *
 * The context also memoizes the expensive derived objects that earlier
 * versions rebuilt on every operation: BaseConverters (O(m²) big-integer
 * work each) and NTT-domain automorphism permutation tables. Both caches
 * are value-transparent — a cached object is a pure function of the
 * context and the key — so caching cannot change any result.
 */
class FheContext
{
  public:
    explicit FheContext(const FheContextParams &params);
    ~FheContext();

    FheContext(const FheContext &) = delete;
    FheContext &operator=(const FheContext &) = delete;

    u64 n() const { return n_; }
    u32 maxLevel() const { return levels_; }
    u32 alpha() const { return alpha_; }
    u32 dnum() const { return dnum_; }
    double defaultScale() const { return scale_; }

    u32 qCount() const { return levels_ + 1; }
    u32 pCount() const { return alpha_; }
    u32 modulusCount() const { return qCount() + pCount(); }

    const Modulus &mod(u32 idx) const { return moduli_[idx]; }
    const NttTables &ntt(u32 idx) const { return *ntt_[idx]; }
    u64 modValue(u32 idx) const { return moduli_[idx].value(); }

    /** Global indices of the q basis up to @p level inclusive. */
    std::vector<u32> qBasis(u32 level) const;
    /** Global indices of the p (special) basis. */
    std::vector<u32> pBasis() const;
    /** q basis up to @p level followed by the p basis. */
    std::vector<u32> qpBasis(u32 level) const;

    /** Digit index of q-limb @p i (i / α). */
    u32 digitOf(u32 i) const { return i / alpha_; }
    /** q-limb indices of digit @p j at ciphertext level @p level. */
    std::vector<u32> digitLimbs(u32 j, u32 level) const;
    /** Number of digits spanned by limbs 0…level (β = ceil((ℓ+1)/α)). */
    u32 digitCount(u32 level) const { return (level + 1 + alpha_ - 1) / alpha_; }

    /** Product of the special moduli P (big integer). */
    const BigUInt &bigP() const { return bigP_; }
    /** Product q_0…q_level. */
    BigUInt bigQ(u32 level) const;

    /**
     * The memoized BaseConverter for @p from → @p to. Thread-safe; the
     * returned reference lives as long as the context.
     */
    const BaseConverter &converter(const std::vector<u32> &from,
                                   const std::vector<u32> &to) const;

    /**
     * The memoized NTT-domain automorphism permutation for @p galois:
     * output slot k takes input slot table[k]. Thread-safe.
     */
    const AlignedVec<u64> &autEvalTable(u64 galois) const;

  private:
    u64 n_;
    u32 levels_;
    u32 alpha_;
    u32 dnum_;
    double scale_;
    std::vector<Modulus> moduli_;
    std::vector<std::unique_ptr<NttTables>> ntt_;
    BigUInt bigP_;

    mutable std::mutex cacheMu_;
    mutable std::map<std::pair<std::vector<u32>, std::vector<u32>>,
                     std::unique_ptr<BaseConverter>>
        convCache_;
    mutable std::map<u64, std::unique_ptr<AlignedVec<u64>>> autCache_;
};

/** Domain of an RnsPoly's values. */
enum class Rep
{
    Coeff,  ///< coefficient representation
    Eval,   ///< NTT (evaluation) representation
};

/**
 * A polynomial held limb-wise over an explicit basis of context moduli,
 * in one aligned slab (rows are 64-byte aligned, stride ≥ N).
 */
class RnsPoly
{
  public:
    RnsPoly() : ctx_(nullptr), rep_(Rep::Coeff) {}

    /** Zero polynomial over @p basis. */
    RnsPoly(const FheContext &ctx, std::vector<u32> basis,
            Rep rep = Rep::Coeff);

    const FheContext &context() const { return *ctx_; }
    u64 n() const { return ctx_->n(); }
    Rep rep() const { return rep_; }
    void setRep(Rep rep) { rep_ = rep; }

    u32 limbCount() const { return static_cast<u32>(basis_.size()); }
    const std::vector<u32> &basis() const { return basis_; }
    u32 modIndex(u32 limb) const { return basis_[limb]; }
    const Modulus &mod(u32 limb) const { return ctx_->mod(basis_[limb]); }

    /** Row i of the limb matrix (N elements, 64-byte-aligned start). */
    std::span<u64>
    limb(u32 i)
    {
        return {data_.data() + i * stride_, static_cast<std::size_t>(n())};
    }
    std::span<const u64>
    limb(u32 i) const
    {
        return {data_.data() + i * stride_, static_cast<std::size_t>(n())};
    }

    /** Copy of limb @p i (tests compare limbs by value). */
    std::vector<u64>
    limbVec(u32 i) const
    {
        auto s = limb(i);
        return {s.begin(), s.end()};
    }

    /** Slab row stride in elements (≥ n, multiple of 8). */
    u64 limbStride() const { return stride_; }

    /** limb(dst_limb) = src.limb(src_limb) (sizes must match). */
    void copyLimbFrom(u32 dst_limb, const RnsPoly &src, u32 src_limb);

    /** this += other (same basis, same representation). */
    void addInplace(const RnsPoly &other);
    /** this -= other (same basis, same representation). */
    void subInplace(const RnsPoly &other);
    /** this = -this. */
    void negateInplace();
    /** this *= other element-wise; both must be in Eval representation. */
    void mulEwInplace(const RnsPoly &other);
    /** Multiply limb i by scalar (already reduced mod that limb). */
    void mulScalarInplace(const std::vector<u64> &scalar_per_limb);
    /** Multiply every limb by the same small integer constant. */
    void mulConstInplace(u64 c);

    /** Convert all limbs Coeff -> Eval. */
    void toEval();
    /** Convert all limbs Eval -> Coeff. */
    void toCoeff();

    /** Drop the last limb (used by rescale/level drop bookkeeping). */
    void dropLastLimb();

    /** Keep only the limbs whose basis entry is within the q range ≤ level. */
    RnsPoly restrictedTo(const std::vector<u32> &basis) const;

    /**
     * CRT-reconstruct coefficient @p coeff_idx as an integer in [0, M)
     * where M is the product of this poly's basis. Requires Rep::Coeff.
     */
    BigUInt reconstructCoeff(u64 coeff_idx) const;

    /** Fill all limbs with uniformly random values (for tests / keygen). */
    void uniformRandom(crophe::Rng &rng);

  private:
    const FheContext *ctx_;
    Rep rep_;
    std::vector<u32> basis_;
    u64 stride_ = 0;
    AlignedVec<u64> data_;
};

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_RNS_H_
