#ifndef CROPHE_FHE_KERNELS_SIMD512_INL_H_
#define CROPHE_FHE_KERNELS_SIMD512_INL_H_

/**
 * @file
 * 512-bit helpers shared by the avx512 and avx512ifma backends.
 *
 * Include only from kernel backend .cc files compiled with at least
 * -mavx512f -mavx512dq; this header is not part of the public kernel API.
 */

#include <immintrin.h>

#include "common/types.h"

namespace crophe::fhe::kernels::simd512 {

/** x - (x >= bound ? bound : 0), full unsigned range via mask compare. */
inline __m512i
condSub(__m512i x, __m512i bound)
{
    __mmask8 ge = _mm512_cmpge_epu64_mask(x, bound);
    return _mm512_mask_sub_epi64(x, ge, x, bound);
}

/**
 * Calls @p fn once with a row loader for one aligned block of 8 outputs
 * whose source indices are idx[0..8): the loader maps a row pointer r to
 * the lanes r[idx[k]]. When all 8 indices lie in one
 * aligned 8-word source block (idx >> 3 equal across lanes, which holds
 * for every Eval-domain automorphism table), the loader reads that block
 * and permutes it by idx & 7 (vpermq ignores the higher index bits);
 * otherwise it is a hardware gather.
 */
template <class Fn>
inline void
withIndexedRows(const u64 *idx, Fn &&fn)
{
    const __m512i vi = _mm512_loadu_si512(idx);
    const __m512i blk = _mm512_srli_epi64(vi, 3);
    const __m512i first =
        _mm512_permutexvar_epi64(_mm512_setzero_si512(), blk);
    if (_mm512_cmpneq_epi64_mask(blk, first) == 0) {
        const u64 base = idx[0] & ~u64(7);
        fn([vi, base](const u64 *r) {
            return _mm512_permutexvar_epi64(vi, _mm512_loadu_si512(r + base));
        });
    } else {
        fn([vi](const u64 *r) { return _mm512_i64gather_epi64(vi, r, 8); });
    }
}

}  // namespace crophe::fhe::kernels::simd512

#endif  // CROPHE_FHE_KERNELS_SIMD512_INL_H_
