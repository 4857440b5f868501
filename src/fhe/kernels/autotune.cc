#include "fhe/kernels/autotune.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"

namespace crophe::fhe::kernels {

namespace {

constexpr const char *kMagic = "crophe-ntt-autotune";
constexpr const char *kFileName = "autotune_ntt.tbl";
constexpr u32 kDefaultTile = 4;
constexpr u32 kMaxTile = 8;

bool
verbose()
{
    static const bool v = [] {
        const char *e = std::getenv("CROPHE_AUTOTUNE_VERBOSE");
        return e != nullptr && e[0] != '\0' && e[0] != '0';
    }();
    return v;
}

u64
fnv1a(u64 h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

u64
fnv1aStr(u64 h, const std::string &s)
{
    return fnv1a(h, s.data(), s.size());
}

/** Host/kernel digest: CPU feature set + kernel-layer version. */
u64
hostDigest()
{
    u64 h = 1469598103934665603ull;
    u64 bits = kKernelVersion;
    bits = (bits << 1) | (cpuFeatures().avx2 ? 1 : 0);
    bits = (bits << 1) | (cpuFeatures().avx512 ? 1 : 0);
    bits = (bits << 1) | (cpuFeatures().avx512ifma ? 1 : 0);
#ifdef CROPHE_HAVE_AVX2
    bits = (bits << 1) | 1;
#else
    bits <<= 1;
#endif
#ifdef CROPHE_HAVE_AVX512
    bits = (bits << 1) | 1;
#else
    bits <<= 1;
#endif
#ifdef CROPHE_HAVE_AVX512IFMA
    bits = (bits << 1) | 1;
#else
    bits <<= 1;
#endif
    return fnv1a(h, &bits, sizeof bits);
}

u64
limbsBucket(u64 limbs)
{
    u64 bucket = 1;
    while (bucket * 2 <= limbs && bucket < kMaxTile)
        bucket <<= 1;
    return bucket;
}

}  // namespace

Autotuner::Autotuner(std::string dir) : dir_(std::move(dir))
{
    if (const char *e = std::getenv("CROPHE_AUTOTUNE")) {
        std::string v(e);
        if (v == "off" || v == "0" || v == "false")
            enabled_ = false;
    }
    if (const char *e = std::getenv("CROPHE_NTT_TILE")) {
        char *end = nullptr;
        unsigned long t = std::strtoul(e, &end, 10);
        if (end != e && *end == '\0' && t >= 1 && t <= 64)
            forcedTile_ = static_cast<u32>(t);
    }
    if (!dir_.empty() && enabled_) {
        // Like the plan cache, the table directory is created on demand;
        // failure just means the tuner stays in-memory.
        std::error_code ec;
        std::filesystem::create_directories(dir_, ec);
        std::lock_guard<std::mutex> lock(mu_);
        loadLocked();
    }
}

u32
Autotuner::batchTile(u64 n, u64 limbs, Backend b)
{
    if (limbs <= 1)
        return 1;
    if (forcedTile_ != 0)
        return forcedTile_;
    const u64 bucket = limbsBucket(limbs);
    if (!enabled_)
        return static_cast<u32>(std::min<u64>(kDefaultTile, bucket));
    std::lock_guard<std::mutex> lock(mu_);
    auto key = std::make_tuple(n, bucket, static_cast<u8>(b));
    auto it = table_.find(key);
    if (it != table_.end()) {
        ++stats_.memoHits;
        return it->second;
    }
    u32 tile = tuneLocked(n, bucket, b);
    table_[key] = tile;
    ++stats_.tuned;
    if (!dir_.empty())
        persistLocked();
    return tile;
}

void
Autotuner::prepare(u64 n)
{
    // The key-switch hot path batches the (b, a) accumulator pair per
    // modulus, so pre-tune the 2-wide shape for the active backend.
    batchTile(n, 2, activeBackend());
}

/**
 * Measure the candidate tile widths with a forward+inverse round trip
 * over `limbs` polynomials and keep the fastest (ties break toward the
 * smaller tile, so the choice is stable under timing noise on equal
 * variants). Every candidate is exact, so whichever wins, downstream
 * results are byte-identical.
 */
u32
Autotuner::tuneLocked(u64 n, u64 limbs, Backend b)
{
    const KernelTable *kt = tableFor(b);
    if (kt == nullptr || n < 8)
        return 1;

    auto primes = generateNttPrimes(50, n, 1);
    Modulus mod(primes[0]);
    NttTables ntt(n, mod);
    const NttView fwd = ntt.forwardView();
    const NttView inv = ntt.inverseView();

    Rng rng(1);
    std::vector<std::vector<u64>> data(limbs);
    std::vector<u64 *> polys(limbs);
    for (u64 i = 0; i < limbs; ++i) {
        data[i].resize(n);
        for (auto &x : data[i])
            x = rng.nextBounded(mod.value());
        polys[i] = data[i].data();
    }

    u32 best = 1;
    double bestNs = 0.0;
    for (u32 tile = 1; tile <= limbs; tile <<= 1) {
        // Warm-up round, then best-of-3 timing; a round trip restores
        // the input so every candidate sees identical data.
        fwdNttBatched(*kt, polys.data(), limbs, fwd, tile);
        invNttBatched(*kt, polys.data(), limbs, inv, tile);
        double minNs = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            auto t0 = std::chrono::steady_clock::now();
            fwdNttBatched(*kt, polys.data(), limbs, fwd, tile);
            invNttBatched(*kt, polys.data(), limbs, inv, tile);
            auto t1 = std::chrono::steady_clock::now();
            double ns =
                std::chrono::duration<double, std::nano>(t1 - t0).count();
            if (rep == 0 || ns < minNs)
                minNs = ns;
        }
        if (tile == 1 || minNs < bestNs) {
            best = tile;
            bestNs = minNs;
        }
    }
    if (verbose())
        std::fprintf(stderr,
                     "autotune: tuned n=%llu limbs=%llu backend=%s -> "
                     "tile %u (%.0f ns/round)\n",
                     static_cast<unsigned long long>(n),
                     static_cast<unsigned long long>(limbs),
                     backendName(b), best, bestNs);
    return best;
}

bool
Autotuner::loadLocked()
{
    const std::string path = dir_ + "/" + kFileName;
    std::ifstream is(path);
    if (!is)
        return false;  // no table yet; not a rejection
    std::ostringstream hashed;
    std::string line;
    std::map<std::tuple<u64, u64, u8>, u32> parsed;
    bool sawMagic = false, sawHost = false, sawChecksum = false;
    bool ok = true;
    while (ok && std::getline(is, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "checksum") {
            std::string hex;
            ls >> hex;
            u64 want = std::strtoull(hex.c_str(), nullptr, 16);
            u64 got = fnv1aStr(1469598103934665603ull, hashed.str());
            ok = sawMagic && sawHost && want == got;
            sawChecksum = true;
            break;
        }
        hashed << line << "\n";
        if (tag == kMagic) {
            u32 version = 0;
            ls >> version;
            ok = !ls.fail() && version == kKernelVersion;
            sawMagic = true;
        } else if (tag == "host") {
            std::string hex;
            ls >> hex;
            ok = std::strtoull(hex.c_str(), nullptr, 16) == hostDigest();
            sawHost = true;
        } else if (tag == "entry") {
            u64 n = 0, limbs = 0;
            std::string backend;
            u32 tile = 0;
            ls >> n >> limbs >> backend >> tile;
            std::optional<Backend> b = backendByName(backend);
            ok = !ls.fail() && b && tile >= 1 && tile <= 64;
            if (ok)
                parsed[{n, limbs, static_cast<u8>(*b)}] = tile;
        } else {
            ok = false;
        }
    }
    if (!ok || !sawChecksum) {
        // Corrupt, stale or foreign table: ignore it entirely and
        // re-tune — a rejected table can never influence results.
        ++stats_.diskRejects;
        if (verbose())
            std::fprintf(stderr, "autotune: rejected table %s (re-tuning)\n",
                         path.c_str());
        return false;
    }
    table_ = std::move(parsed);
    stats_.diskLoaded += table_.size();
    if (verbose())
        std::fprintf(stderr, "autotune: loaded %zu entries from %s\n",
                     table_.size(), path.c_str());
    return true;
}

void
Autotuner::persistLocked()
{
    std::ostringstream body;
    body << kMagic << " " << kKernelVersion << "\n";
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hostDigest()));
    body << "host " << hex << "\n";
    for (const auto &[key, tile] : table_) {
        const auto &[n, limbs, b] = key;
        body << "entry " << n << " " << limbs << " "
             << backendName(static_cast<Backend>(b)) << " " << tile << "\n";
    }
    u64 sum = fnv1aStr(1469598103934665603ull, body.str());
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(sum));

    // Atomic publish: write a temp file, then rename over the table.
    const std::string path = dir_ + "/" + kFileName;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return;  // unwritable dir: stay in-memory, never fail the run
        os << body.str() << "checksum " << hex << "\n";
    }
    if (std::rename(tmp.c_str(), path.c_str()) == 0)
        ++stats_.diskWrites;
    else
        std::remove(tmp.c_str());
}

Autotuner &
autotuner()
{
    static Autotuner tuner([] {
        if (const char *e = std::getenv("CROPHE_AUTOTUNE_DIR"))
            return std::string(e);
        if (const char *e = std::getenv("CROPHE_PLAN_CACHE"))
            return std::string(e);
        return std::string();
    }());
    return tuner;
}

}  // namespace crophe::fhe::kernels
