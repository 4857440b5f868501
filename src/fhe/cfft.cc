#include "fhe/cfft.h"

#include <cmath>
#include <numbers>

#include "common/logging.h"
#include "common/math_util.h"

namespace crophe::fhe {

namespace {

void
arrayBitReverse(std::vector<Cplx> &vals)
{
    u64 n = vals.size();
    u32 logn = log2Exact(n);
    for (u64 i = 0; i < n; ++i) {
        u64 j = bitReverse(i, logn);
        if (i < j)
            std::swap(vals[i], vals[j]);
    }
}

}  // namespace

SpecialFft::SpecialFft(u64 n) : n_(n), m_(2 * n)
{
    CROPHE_ASSERT(isPow2(n) && n >= 4, "ring degree must be a power of two >= 4");
    std::vector<Cplx> ksi(m_ + 1);  // ksi[j] = exp(2πi j / M)
    for (u64 j = 0; j <= m_; ++j) {
        double angle = 2.0 * std::numbers::pi * static_cast<double>(j) /
                       static_cast<double>(m_);
        ksi[j] = Cplx(std::cos(angle), std::sin(angle));
    }
    std::vector<u64> rot_group(n_ / 2);  // 5^j mod M
    u64 five = 1;
    for (u64 j = 0; j < n_ / 2; ++j) {
        rot_group[j] = five;
        five = (five * 5) % m_;
    }
    // Butterfly j of the stage with half-length lenh uses the root
    // ζ^{(5^j mod lenq)·M/lenq}, lenq = 4·len; the inverse uses its
    // conjugate. Both are stored at [lenh - 1 + j].
    const u64 slots_count = n_ / 2;
    fwdTw_.resize(slots_count);
    invTw_.resize(slots_count);
    for (u64 len = 2; len <= slots_count; len <<= 1) {
        const u64 lenh = len >> 1;
        const u64 lenq = len << 2;
        for (u64 j = 0; j < lenh; ++j) {
            const u64 r = rot_group[j] % lenq;
            fwdTw_[lenh - 1 + j] = ksi[r * (m_ / lenq)];
            invTw_[lenh - 1 + j] = ksi[(lenq - r) * (m_ / lenq)];
        }
    }
}

void
SpecialFft::embed(std::vector<Cplx> &vals) const
{
    const u64 slots_count = vals.size();
    CROPHE_ASSERT(slots_count == slots(), "slot count mismatch");
    arrayBitReverse(vals);
    for (u64 len = 2; len <= slots_count; len <<= 1) {
        const u64 lenh = len >> 1;
        const Cplx *tw = fwdTw_.data() + lenh - 1;
        for (u64 i = 0; i < slots_count; i += len) {
            for (u64 j = 0; j < lenh; ++j) {
                Cplx u = vals[i + j];
                Cplx v = vals[i + j + lenh] * tw[j];
                vals[i + j] = u + v;
                vals[i + j + lenh] = u - v;
            }
        }
    }
}

void
SpecialFft::embedInverse(std::vector<Cplx> &vals) const
{
    const u64 slots_count = vals.size();
    CROPHE_ASSERT(slots_count == slots(), "slot count mismatch");
    for (u64 len = slots_count; len >= 2; len >>= 1) {
        const u64 lenh = len >> 1;
        const Cplx *tw = invTw_.data() + lenh - 1;
        for (u64 i = 0; i < slots_count; i += len) {
            for (u64 j = 0; j < lenh; ++j) {
                Cplx u = vals[i + j] + vals[i + j + lenh];
                Cplx v = (vals[i + j] - vals[i + j + lenh]) * tw[j];
                vals[i + j] = u;
                vals[i + j + lenh] = v;
            }
        }
    }
    arrayBitReverse(vals);
    double inv = 1.0 / static_cast<double>(slots_count);
    for (auto &v : vals)
        v *= inv;
}

std::vector<Cplx>
embedDirect(const std::vector<double> &coeffs)
{
    const u64 n = coeffs.size();
    const u64 m = 2 * n;
    std::vector<Cplx> out(n / 2);
    u64 power = 1;
    for (u64 j = 0; j < n / 2; ++j) {
        Cplx acc(0.0, 0.0);
        for (u64 k = 0; k < n; ++k) {
            double angle = 2.0 * std::numbers::pi *
                           static_cast<double>((power * k) % m) /
                           static_cast<double>(m);
            acc += coeffs[k] * Cplx(std::cos(angle), std::sin(angle));
        }
        out[j] = acc;
        power = (power * 5) % m;
    }
    return out;
}

std::vector<double>
embedInverseDirect(const std::vector<Cplx> &slots, u64 n)
{
    const u64 m = 2 * n;
    const u64 half = n / 2;
    CROPHE_ASSERT(slots.size() == half, "slot count mismatch");
    std::vector<double> out(n, 0.0);
    for (u64 k = 0; k < n; ++k) {
        double acc = 0.0;
        u64 power = 1;
        for (u64 j = 0; j < half; ++j) {
            // Re(z_j * ζ^{-k·5^j})
            u64 e = (power * (k % m)) % m;
            double angle = -2.0 * std::numbers::pi * static_cast<double>(e) /
                           static_cast<double>(m);
            acc += slots[j].real() * std::cos(angle) -
                   slots[j].imag() * std::sin(angle);
            power = (power * 5) % m;
        }
        out[k] = acc / static_cast<double>(half);
    }
    return out;
}

}  // namespace crophe::fhe
