#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <optional>
#include <sstream>

#include "common/cli.h"
#include "common/error.h"
#include "common/logging.h"

namespace crophe::fault {

namespace {

/** One `key=value` item plus where it starts in the spec string, so
 *  every rejection can point at the exact offending bytes. */
struct Token
{
    std::string text;
    std::size_t offset = 0;
};

[[noreturn]] void
badToken(const std::string &spec, const Token &tok, const std::string &why)
{
    throw RecoverableError("invalid fault plan \"" + spec + "\": token \"" +
                           tok.text + "\" at byte " +
                           std::to_string(tok.offset) + ": " + why);
}

u64
parseU64(const std::string &spec, const Token &tok, const std::string &key,
         const std::string &value)
{
    std::optional<u64> v = cli::parseU64(value.c_str());
    if (!v)
        badToken(spec, tok, key + " expects an unsigned integer, got \"" +
                               value + "\"");
    return *v;
}

u32
parseU32(const std::string &spec, const Token &tok, const std::string &key,
         const std::string &value)
{
    u64 v = parseU64(spec, tok, key, value);
    if (v > UINT32_MAX)
        badToken(spec, tok, key + " must be at most 4294967295, got " +
                               value);
    return static_cast<u32>(v);
}

double
parseDouble(const std::string &spec, const Token &tok,
            const std::string &key, const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        badToken(spec, tok, key + " expects a number, got \"" + value +
                                "\"");
    return v;
}

double
parseRate(const std::string &spec, const Token &tok, const std::string &key,
          const std::string &value)
{
    double v = parseDouble(spec, tok, key, value);
    if (!(v >= 0.0 && v <= 1.0))
        badToken(spec, tok,
                 key + " must be a probability in [0, 1], got " + value);
    return v;
}

double
parseCycles(const std::string &spec, const Token &tok,
            const std::string &key, const std::string &value)
{
    double v = parseDouble(spec, tok, key, value);
    if (!(v >= 0.0))
        badToken(spec, tok, key + " must be non-negative, got " + value);
    return v;
}

double
parseEventSeconds(const std::string &spec, const Token &tok,
                  const std::string &key, const std::string &at)
{
    double v = parseDouble(spec, tok, key, at);
    if (!(v >= 0.0) || !std::isfinite(v))
        badToken(spec, tok, key + " needs a finite non-negative virtual "
                                  "time after '@', got " +
                                at);
    return v;
}

/** Shortest text that strtod round-trips to the same double. */
std::string
formatDouble(double v)
{
    std::ostringstream os;
    os << v;
    if (std::strtod(os.str().c_str(), nullptr) == v)
        return os.str();
    os.str("");
    os << std::setprecision(17) << v;
    return os.str();
}

}  // namespace

bool
FaultPlan::empty() const
{
    return dramErrorRate == 0.0 && stalledDramChannels == 0 &&
           nocLinkFailRate == 0.0 && deadPeGroups == 0 &&
           failedSramBanks == 0 && deadChips == 0 && chipFails.empty() &&
           linkDegrades.empty() && batchFailRate == 0.0;
}

u32
FaultPlan::timedDeadChips() const
{
    u32 total = 0;
    for (const ChipFailEvent &ev : chipFails)
        total += ev.chips;
    return total;
}

FaultPlan
FaultPlan::parse(const std::string &spec, u32 podChips)
{
    FaultPlan plan;

    // Scan comma-separated tokens by hand so each one keeps its byte
    // offset; every rejection below points at the exact offending bytes.
    std::size_t pos = 0;
    Token retryTok, bankTok, deadChipsTok;
    std::vector<Token> chipFailToks;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        Token tok{spec.substr(pos, comma - pos), pos};
        pos = comma + 1;
        if (tok.text.empty()) {
            if (comma == spec.size())
                break;
            continue;
        }
        auto eq = tok.text.find('=');
        if (eq == std::string::npos)
            badToken(spec, tok, "expected key=value");
        std::string key = tok.text.substr(0, eq);
        std::string value = tok.text.substr(eq + 1);

        // Timed events carry their fire time after '@': key@SECONDS=VALUE.
        std::string at;
        auto atSign = key.find('@');
        if (atSign != std::string::npos) {
            at = key.substr(atSign + 1);
            key = key.substr(0, atSign);
        }
        if (atSign != std::string::npos && key != "chip-fail" &&
            key != "link-degrade")
            badToken(spec, tok,
                     "'@' scheduling is only valid on chip-fail and "
                     "link-degrade, not \"" +
                         key + "\"");
        if (key == "chip-fail") {
            if (atSign == std::string::npos)
                badToken(spec, tok,
                         "chip-fail needs a fire time: chip-fail@SECONDS=K");
            ChipFailEvent ev;
            ev.seconds = parseEventSeconds(spec, tok, key, at);
            ev.chips = parseU32(spec, tok, "chip-fail", value);
            if (ev.chips == 0)
                badToken(spec, tok, "chip-fail must kill at least 1 chip");
            plan.chipFails.push_back(ev);
            chipFailToks.push_back(tok);
        } else if (key == "link-degrade") {
            if (atSign == std::string::npos)
                badToken(spec, tok, "link-degrade needs a fire time: "
                                    "link-degrade@SECONDS=FRACTION");
            LinkDegradeEvent ev;
            ev.seconds = parseEventSeconds(spec, tok, key, at);
            ev.fraction = parseDouble(spec, tok, "link-degrade", value);
            if (!(ev.fraction > 0.0 && ev.fraction <= 1.0))
                badToken(spec, tok,
                         "link-degrade fraction must be in (0, 1], got " +
                             value);
            plan.linkDegrades.push_back(ev);
        } else if (key == "batch-fail")
            plan.batchFailRate = parseRate(spec, tok, key, value);
        else if (key == "seed")
            plan.seed = parseU64(spec, tok, key, value);
        else if (key == "dram-err")
            plan.dramErrorRate = parseRate(spec, tok, key, value);
        else if (key == "dram-ecc")
            plan.dramEccFraction = parseRate(spec, tok, key, value);
        else if (key == "dram-retries") {
            plan.dramRetryLimit = parseU32(spec, tok, key, value);
            retryTok = tok;
        } else if (key == "dram-backoff")
            plan.dramRetryBackoffCycles = parseCycles(spec, tok, key, value);
        else if (key == "stalled-channels")
            plan.stalledDramChannels = parseU32(spec, tok, key, value);
        else if (key == "channel-stall")
            plan.channelStallCycles = parseCycles(spec, tok, key, value);
        else if (key == "noc-fail")
            plan.nocLinkFailRate = parseRate(spec, tok, key, value);
        else if (key == "noc-extra-hops")
            plan.nocRerouteExtraHops = parseU32(spec, tok, key, value);
        else if (key == "dead-pe-groups")
            plan.deadPeGroups = parseU32(spec, tok, key, value);
        else if (key == "failed-sram-banks") {
            plan.failedSramBanks = parseU32(spec, tok, key, value);
            bankTok = tok;
        } else if (key == "dead-chips") {
            plan.deadChips = parseU32(spec, tok, key, value);
            deadChipsTok = tok;
        } else
            badToken(spec, tok, "unknown key \"" + key + "\"");
    }
    if (plan.dramRetryLimit > 16)
        badToken(spec, retryTok,
                 "dram-retries must be <= 16 (backoff doubles per retry "
                 "and would overflow any latency budget)");
    if (plan.failedSramBanks >= kSramBanks && plan.failedSramBanks != 0)
        badToken(spec, bankTok,
                 "failed-sram-banks must leave at least one of " +
                     std::to_string(kSramBanks) + " banks working");

    // Events fire in time order; stable sorts keep spec order for ties.
    // chipFails sorts together with its source tokens so the pod-size
    // guard below can blame the exact event that crosses the line.
    std::vector<std::size_t> order(plan.chipFails.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return plan.chipFails[a].seconds <
                                plan.chipFails[b].seconds;
                     });
    std::vector<ChipFailEvent> sortedFails;
    std::vector<Token> sortedToks;
    sortedFails.reserve(order.size());
    sortedToks.reserve(order.size());
    for (std::size_t i : order) {
        sortedFails.push_back(plan.chipFails[i]);
        sortedToks.push_back(chipFailToks[i]);
    }
    plan.chipFails = std::move(sortedFails);
    chipFailToks = std::move(sortedToks);
    std::stable_sort(plan.linkDegrades.begin(), plan.linkDegrades.end(),
                     [](const LinkDegradeEvent &a, const LinkDegradeEvent &b) {
                         return a.seconds < b.seconds;
                     });

    if (podChips > 0) {
        if (plan.deadChips >= podChips)
            badToken(spec, deadChipsTok,
                     "dead-chips must leave at least one of " +
                         std::to_string(podChips) + " pod chips alive");
        u32 dead = plan.deadChips;
        for (std::size_t i = 0; i < plan.chipFails.size(); ++i) {
            dead += plan.chipFails[i].chips;
            if (dead >= podChips)
                badToken(spec, chipFailToks[i],
                         "scheduled chip failures plus dead-chips must "
                         "leave at least one of " +
                             std::to_string(podChips) + " pod chips alive");
        }
    }
    return plan;
}

std::string
FaultPlan::specFromEnv()
{
    const char *env = std::getenv("CROPHE_FAULT_PLAN");
    return env != nullptr ? std::string(env) : std::string();
}

std::string
FaultPlan::toString() const
{
    const FaultPlan def;
    std::ostringstream os;
    const char *sep = "";
    auto emit = [&](const char *key, auto value, auto default_value) {
        if (value == default_value)
            return;
        os << sep << key << "=" << value;
        sep = ",";
    };
    emit("seed", seed, def.seed);
    emit("dram-err", dramErrorRate, def.dramErrorRate);
    emit("dram-ecc", dramEccFraction, def.dramEccFraction);
    emit("dram-retries", dramRetryLimit, def.dramRetryLimit);
    emit("dram-backoff", dramRetryBackoffCycles, def.dramRetryBackoffCycles);
    emit("stalled-channels", stalledDramChannels, def.stalledDramChannels);
    emit("channel-stall", channelStallCycles, def.channelStallCycles);
    emit("noc-fail", nocLinkFailRate, def.nocLinkFailRate);
    emit("noc-extra-hops", nocRerouteExtraHops, def.nocRerouteExtraHops);
    emit("dead-pe-groups", deadPeGroups, def.deadPeGroups);
    emit("failed-sram-banks", failedSramBanks, def.failedSramBanks);
    emit("dead-chips", deadChips, def.deadChips);
    emit("batch-fail", batchFailRate, def.batchFailRate);
    for (const ChipFailEvent &ev : chipFails) {
        os << sep << "chip-fail@" << formatDouble(ev.seconds) << "="
           << ev.chips;
        sep = ",";
    }
    for (const LinkDegradeEvent &ev : linkDegrades) {
        os << sep << "link-degrade@" << formatDouble(ev.seconds) << "="
           << formatDouble(ev.fraction);
        sep = ",";
    }
    return os.str();
}

hw::HwConfig
FaultPlan::degradedConfig(const hw::HwConfig &healthy) const
{
    hw::HwConfig cfg = healthy;
    if (!degradesHardware())
        return cfg;

    if (deadPeGroups > 0) {
        if (deadPeGroups >= healthy.meshX)
            throw RecoverableError(
                "fault plan kills all " + std::to_string(healthy.meshX) +
                " PE groups of " + healthy.name + "; nothing left to run on");
        // A PE group is one mesh column; the column's share of the array
        // dies with it.
        u32 per_column = healthy.numPes / healthy.meshX;
        if (per_column == 0)
            per_column = 1;
        u32 lost = deadPeGroups * per_column;
        if (lost >= healthy.numPes)
            throw RecoverableError("fault plan leaves no working PEs on " +
                                   healthy.name);
        cfg.numPes = healthy.numPes - lost;
        cfg.meshX = healthy.meshX - deadPeGroups;
    }
    if (failedSramBanks > 0) {
        if (failedSramBanks >= kSramBanks)
            throw RecoverableError("fault plan fails every global-buffer "
                                   "bank of " +
                                   healthy.name);
        // Single-ported banks: losing a bank loses its capacity slice and
        // its slice of the aggregate bandwidth.
        double keep = static_cast<double>(kSramBanks - failedSramBanks) /
                      static_cast<double>(kSramBanks);
        cfg.sramMB = healthy.sramMB * keep;
        cfg.sramGBs = healthy.sramGBs * keep;
    }
    cfg.name = healthy.name + "+degraded";
    hw::validateConfig(cfg);
    CROPHE_ASSERT(hw::configDigest(cfg) != hw::configDigest(healthy),
                  "degraded config must never share the healthy digest");
    return cfg;
}

double
degradationRatio(double degraded_cycles, double healthy_cycles)
{
    CROPHE_ASSERT(degraded_cycles > 0.0 && healthy_cycles > 0.0,
                  "degradation ratio needs positive cycle counts, got ",
                  degraded_cycles, " / ", healthy_cycles);
    return degraded_cycles / healthy_cycles;
}

}  // namespace crophe::fault
