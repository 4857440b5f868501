#ifndef CROPHE_TESTS_FHE_TEST_UTIL_H_
#define CROPHE_TESTS_FHE_TEST_UTIL_H_

/** Shared fixtures/helpers for the FHE test binaries. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "fhe/kernels/kernels.h"
#include "fhe/rns.h"

namespace crophe::fhe::test {

/** A small but fully functional context: N=256, L=4, alpha=2. */
inline FheContextParams
smallParams()
{
    FheContextParams p;
    p.n = 256;
    p.levels = 4;
    p.alpha = 2;
    p.firstModulusBits = 50;
    p.scalingModulusBits = 35;
    p.specialModulusBits = 50;
    p.scale = static_cast<double>(1ull << 35);
    return p;
}

/** Context with alpha=1 (dnum == L+1), exercising per-prime digits. */
inline FheContextParams
smallParamsAlpha1()
{
    FheContextParams p = smallParams();
    p.alpha = 1;
    return p;
}

inline const FheContext &
smallContext()
{
    static FheContext ctx(smallParams());
    return ctx;
}

/** Restores the process-wide backend selection on scope exit. */
class BackendScope
{
  public:
    BackendScope() : saved_(kernels::activeBackend()) {}
    ~BackendScope() { kernels::setBackend(saved_); }

  private:
    kernels::Backend saved_;
};

/** Uniform canonical coefficients over @p basis, returned in @p rep. */
inline RnsPoly
randomPoly(const FheContext &ctx, const std::vector<u32> &basis, Rng &rng,
           Rep rep)
{
    RnsPoly p(ctx, basis, Rep::Coeff);
    for (u32 i = 0; i < p.limbCount(); ++i) {
        const u64 q = p.mod(i).value();
        u64 *d = p.limb(i).data();
        for (u64 k = 0; k < p.n(); ++k)
            d[k] = rng.nextBounded(q);
    }
    if (rep == Rep::Eval)
        p.toEval();
    return p;
}

inline void
expectPolysEqual(const RnsPoly &got, const RnsPoly &want, const char *what)
{
    ASSERT_EQ(got.limbCount(), want.limbCount()) << what;
    ASSERT_EQ(got.rep(), want.rep()) << what;
    for (u32 i = 0; i < got.limbCount(); ++i) {
        const u64 *g = got.limb(i).data();
        const u64 *w = want.limb(i).data();
        for (u64 k = 0; k < got.n(); ++k)
            ASSERT_EQ(g[k], w[k]) << what << " limb " << i << " coeff " << k;
    }
}

/** FNV-1a over the little-endian bytes of @p n words. */
inline u64
fnv1a(u64 h, const u64 *p, u64 n)
{
    for (u64 i = 0; i < n; ++i) {
        u64 x = p[i];
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (x >> (8 * byte)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** FNV-1a limb trace of @p p, continuing from @p h. */
inline u64
hashPoly(const RnsPoly &p, u64 h = 1469598103934665603ull)
{
    for (u32 i = 0; i < p.limbCount(); ++i)
        h = fnv1a(h, p.limb(i).data(), p.n());
    return h;
}

}  // namespace crophe::fhe::test

#endif  // CROPHE_TESTS_FHE_TEST_UTIL_H_
