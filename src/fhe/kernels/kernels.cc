#include "fhe/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/cpu_features.h"
#include "common/error.h"
#include "common/logging.h"

namespace crophe::fhe::kernels {

namespace {

/** The one name table, in order of preference (most preferred last). */
constexpr struct
{
    Backend backend;
    const char *name;
} kBackends[] = {
    {Backend::Scalar, "scalar"},
    {Backend::Avx2, "avx2"},
    {Backend::Avx512, "avx512"},
    {Backend::Avx512Ifma, "avx512ifma"},
};

Backend
mostPreferredAvailable()
{
    return availableBackends().back();
}

struct Active
{
    std::atomic<const KernelTable *> table{nullptr};
    std::atomic<Backend> backend{Backend::Scalar};
};

Active &
active()
{
    static Active a;
    return a;
}

bool
parseName(const std::string &name, Backend *out)
{
    if (name == "auto") {
        *out = mostPreferredAvailable();
        return true;
    }
    std::optional<Backend> b = backendByName(name);
    if (b)
        *out = *b;
    return b.has_value();
}

/** "scalar|avx2|...|auto", for diagnostics. */
std::string
spellings()
{
    std::string s;
    for (const auto &e : kBackends)
        s += std::string(e.name) + "|";
    return s + "auto";
}

/** One-time default selection: CROPHE_KERNEL env, else most preferred. */
const KernelTable *
resolveDefault()
{
    Backend b = mostPreferredAvailable();
    if (const char *env = std::getenv("CROPHE_KERNEL")) {
        Backend requested;
        if (!parseName(env, &requested)) {
            CROPHE_WARN_ONCE("CROPHE_KERNEL=", env,
                             " is not a backend name (", spellings(),
                             "); using ", backendName(b));
        } else if (!available(requested)) {
            CROPHE_WARN_ONCE("CROPHE_KERNEL=", env,
                             " is unavailable on this host/binary; "
                             "falling back to ",
                             backendName(b));
        } else {
            b = requested;
        }
    }
    active().backend.store(b, std::memory_order_relaxed);
    return tableFor(b);
}

}  // namespace

const KernelTable *
tableFor(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return &scalarTable();
#ifdef CROPHE_HAVE_AVX2
    case Backend::Avx2:
        return cpuFeatures().avx2 ? &avx2Table() : nullptr;
#endif
#ifdef CROPHE_HAVE_AVX512
    case Backend::Avx512:
        return cpuFeatures().avx512 ? &avx512Table() : nullptr;
#endif
#ifdef CROPHE_HAVE_AVX512IFMA
    case Backend::Avx512Ifma:
        return cpuFeatures().avx512ifma ? &avx512ifmaTable() : nullptr;
#endif
    default:  // not compiled into this binary
        return nullptr;
    }
}

const KernelTable &
table()
{
    const KernelTable *t = active().table.load(std::memory_order_acquire);
    if (t == nullptr) {
        t = resolveDefault();
        active().table.store(t, std::memory_order_release);
    }
    return *t;
}

Backend
activeBackend()
{
    table();  // force resolution
    return active().backend.load(std::memory_order_relaxed);
}

bool
available(Backend b)
{
    return tableFor(b) != nullptr;
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> out;
    for (const auto &e : kBackends)
        if (available(e.backend))
            out.push_back(e.backend);
    return out;
}

void
setBackend(Backend b)
{
    CROPHE_ASSERT(available(b), "kernel backend '", backendName(b),
                  "' unavailable");
    active().backend.store(b, std::memory_order_relaxed);
    active().table.store(tableFor(b), std::memory_order_release);
}

std::optional<Backend>
backendByName(const std::string &name)
{
    for (const auto &e : kBackends)
        if (name == e.name)
            return e.backend;
    return std::nullopt;
}

Backend
parseBackend(const std::string &name)
{
    Backend b;
    if (!parseName(name, &b))
        throw RecoverableError("unknown kernel backend '" + name +
                               "' (expected " + spellings() + ")");
    return b;
}

void
requestBackend(Backend b)
{
    if (!available(b)) {
        Backend fallback = mostPreferredAvailable();
        CROPHE_WARN_ONCE("kernel backend '", backendName(b),
                         "' unavailable on this host/binary; "
                         "falling back to ",
                         backendName(fallback));
        b = fallback;
    }
    setBackend(b);
}

bool
setBackendByName(const std::string &name)
{
    Backend b;
    if (!parseName(name, &b))
        return false;
    requestBackend(b);
    return true;
}

void
fwdNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
              const NttView &t, u64 tile)
{
    if (kt.fwdNttBatch == nullptr) {
        for (u64 i = 0; i < count; ++i)
            kt.fwdNtt(polys[i], t);
        return;
    }
    if (tile == 0 || tile >= count) {
        kt.fwdNttBatch(polys, count, t);
        return;
    }
    for (u64 at = 0; at < count; at += tile)
        kt.fwdNttBatch(polys + at, std::min(tile, count - at), t);
}

void
invNttBatched(const KernelTable &kt, u64 *const *polys, u64 count,
              const NttView &t, u64 tile)
{
    if (kt.invNttBatch == nullptr) {
        for (u64 i = 0; i < count; ++i)
            kt.invNtt(polys[i], t);
        return;
    }
    if (tile == 0 || tile >= count) {
        kt.invNttBatch(polys, count, t);
        return;
    }
    for (u64 at = 0; at < count; at += tile)
        kt.invNttBatch(polys + at, std::min(tile, count - at), t);
}

const char *
backendName(Backend b)
{
    for (const auto &e : kBackends)
        if (e.backend == b)
            return e.name;
    return "?";
}

}  // namespace crophe::fhe::kernels
