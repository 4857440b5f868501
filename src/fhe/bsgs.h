#ifndef CROPHE_FHE_BSGS_H_
#define CROPHE_FHE_BSGS_H_

/**
 * @file
 * PtMatVecMult via baby-step giant-step (Algorithm 1), plus the three
 * baby-step rotation strategies the paper analyzes (Section V-C):
 *
 *  - MinKs (ARK): sequential unit-step rotations sharing one evk;
 *  - Hoisting (MAD): parallel rotations sharing Decomp/ModUp, one evk each;
 *  - Hybrid (CROPHE): coarse Min-KS steps of stride r_hyb, each expanded by
 *    Hoisting into fine steps — the fine-step evks are shared across all
 *    coarse steps, and each coarse group shares one Decomp/ModUp for its
 *    fine steps and the next coarse step;
 *  - TripleHoisted (Akherati & Zhang): hoisted baby steps (one shared
 *    Decomp/ModUp for the whole set), plus the giant-step inner products
 *    accumulated in the extended qp basis so the per-giant-step ModDown
 *    collapses to one hoisted ModDown at the end (DESIGN.md §15).
 *
 * MinKs rotates eagerly (Evaluator::rotate per step); the other three
 * rotate hoisted digits (Evaluator::hoistedRotate), so babySteps()
 * performs exactly babyStepCost().modUpDown Decomp/ModUps. The
 * strategies decrypt to the same slots but not to the same bits: a
 * rotation chain carries different key-switch noise than a direct
 * rotation, hoisting reuses ModUp digits across rotations (a lift
 * ambiguity absorbed by key-switch noise), and TripleHoisted defers
 * ModDown across the giant-step sum (rounding shift of at most n2-1 per
 * coefficient) — all far below the noise floor. Each hoisted strategy is
 * validated against a same-math oracle bit for bit plus a decrypt-level
 * comparison. The scheduler searches Hybrid and TripleHoisted with its
 * own cost model; this module is the functional counterpart used for
 * correctness tests, the examples and the benchmark.
 */

#include <map>
#include <vector>

#include "fhe/ckks.h"

namespace crophe::fhe {

/** How baby-step rotations are produced. */
enum class RotStrategy
{
    MinKs,          ///< sequential unit rotations, single evk
    Hoisting,       ///< independent rotations, evk per distance
    Hybrid,         ///< coarse Min-KS + fine Hoisting (r_hyb parameter)
    TripleHoisted,  ///< hoisted baby steps + deferred giant-step ModDown
};

/** Keys required by PtMatVecMult for a given strategy. */
struct BsgsKeys
{
    /** Rotation keys by rotation amount. */
    std::map<i64, KswKey> rot;
};

/**
 * Compute all baby-step rotations ct_i = HRot_i(ct) for i = 0…n1-1.
 *
 * @param r_hyb hybrid coarse stride (only used by RotStrategy::Hybrid;
 *        must satisfy 1 <= r_hyb <= n1).
 */
std::vector<Ciphertext> babySteps(const Evaluator &eval,
                                  const Ciphertext &ct, u32 n1,
                                  RotStrategy strategy, u32 r_hyb,
                                  const BsgsKeys &keys);

/** Rotation amounts whose keys @p strategy needs for n1 baby steps plus
 *  n2 giant steps of stride n1. */
std::vector<i64> requiredRotations(u32 n1, u32 n2, RotStrategy strategy,
                                   u32 r_hyb);

/**
 * PtMatVecMult: ct' = M × ct for an s × s diagonal-encoded plaintext
 * matrix, s = n1·n2 (Algorithm 1). Diagonal d of M is provided by
 * @p diag(d) as a length-`slots` vector already rotated per BSGS
 * (Rot_{-n1·j} applied by this routine).
 */
Ciphertext ptMatVecMult(const Evaluator &eval, const Ciphertext &ct,
                        const std::vector<std::vector<double>> &diagonals,
                        u32 n1, u32 n2, RotStrategy strategy, u32 r_hyb,
                        const BsgsKeys &keys);

/**
 * Diagonal extraction helper: diagonals[d][i] = M[i][(i + d) mod s] for a
 * dense s × s matrix, embedded into full-slot vectors by tiling.
 */
std::vector<std::vector<double>> matrixDiagonals(
    const std::vector<std::vector<double>> &m, u64 slots);

/** Plain reference: y = M x (for validation). */
std::vector<double> matVecRef(const std::vector<std::vector<double>> &m,
                              const std::vector<double> &x);

/**
 * Operation-count accounting used by the scheduler tests: the number of
 * ModUp+ModDown pairs and distinct evks each strategy needs for n1 baby
 * steps (Section V-C).
 */
struct RotCost
{
    u32 modUpDown;   ///< key-switching ModUp/ModDown pairs
    u32 distinctEvk; ///< distinct evaluation keys touched
};

RotCost babyStepCost(u32 n1, RotStrategy strategy, u32 r_hyb);

}  // namespace crophe::fhe

#endif  // CROPHE_FHE_BSGS_H_
