/**
 * @file
 * Benchmark harness behind perfbench/run.py.
 *
 * Runs one workload for a fixed number of host seconds through the
 * library's public entry points and prints one JSON object of raw
 * samples: pass times, host-probe times, set-up times, simulated
 * results, output-check outcomes and, in a traced run, per-layer span
 * times and counters. perfbench/metrics.py turns the samples into the
 * named metrics; README.md in this directory documents the workloads.
 *
 *   dse-cold    baselines::runDesign(d, w, {simulate}) over 12 design x
 *               workload pairs plus a ResNet-20 pod at 1 and 8 chips,
 *               no plan cache.
 *   dse-warm    the same pass replayed over a plan-cache directory filled
 *               during set-up; a fresh PlanCache(dir) per pass.
 *   ckks-infer  encrypted 32x32 BSGS matvec + HELR sigmoid cubic at
 *               N=2^14, L=8, alpha=2, checked against the plain reference.
 *
 * Spans are recorded only here, around the calls into each layer
 * (telemetry::TraceRecorder, one 'X' event per span with id/parent args);
 * nothing inside the library is instrumented.
 */

#include <cpuid.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "common/arena.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fhe/bsgs.h"
#include "fhe/chebyshev.h"
#include "fhe/ckks.h"
#include "fhe/kernels/autotune.h"
#include "fhe/kernels/kernels.h"
#include "fhe/ntt.h"
#include "graph/keyswitch_builder.h"
#include "graph/workloads.h"
#include "plan/plan_cache.h"
#include "plan/serialize.h"
#include "pod/pod.h"
#include "sched/cost_model.h"
#include "sched/enumerator.h"
#include "sched/hybrid_rotation.h"
#include "sched/mad.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "telemetry/json_util.h"
#include "telemetry/search_telemetry.h"
#include "telemetry/trace_recorder.h"

#ifndef CROPHE_PERFBENCH_BUILD_TYPE
#define CROPHE_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace crophe;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Thread-pool size, recorded with every result. One thread: on a shared
 * host a fork-join pool waits for its slowest core, which made two-thread
 * runs spread more than one-thread runs.
 */
constexpr u32 kThreads = 1;
/** Set-ups per run; setup_s is their median. */
constexpr u32 kSetups = 3;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string state = ".bench_build/state";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: crophe_perfbench --workload "
                 "dse-cold|dse-warm|ckks-infer --seed N --seconds S "
                 "--trace 0|1 [--state DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--state")
                a.state = v;
            else
                usage("unknown flag " + k);
        } catch (const std::exception &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload != "dse-cold" && a.workload != "dse-warm" &&
        a.workload != "ckks-infer")
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

// --- Host-speed probe ----------------------------------------------------

/**
 * Seconds for a fixed mix of integer arithmetic and dependent loads over
 * 8 MiB, using no library code: run once before and once after the timed
 * passes, it tracks how fast the (possibly shared) host was meanwhile, so
 * a spread in the pass times can be told apart from a change in the
 * program. It runs outside the passes so that its cache traffic touches
 * neither the traced nor the untraced passes.
 */
double
hostProbe()
{
    static std::vector<u32> table = [] {
        std::vector<u32> t(1u << 21);
        for (u32 i = 0; i < t.size(); ++i)
            t[i] = (i * 2654435761u) & (t.size() - 1);
        return t;
    }();
    auto t0 = Clock::now();
    u64 x = 88172645463325252ull;
    u32 j = 0;
    for (u32 i = 0; i < (1u << 18); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        j = table[(j ^ static_cast<u32>(x)) & (table.size() - 1)];
    }
    volatile u64 sink = x + j;
    (void)sink;
    return secondsSince(t0);
}

// --- Output checks -------------------------------------------------------

/** Checked operations counted against attempted ones. */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;  ///< first few, for the log

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
};

// --- Spans ---------------------------------------------------------------

/**
 * Span recorder over telemetry::TraceRecorder: every span is one 'X'
 * event on the harness track whose args carry its id and its parent's
 * id (0 = root). Timestamps are host microseconds since the tracer was
 * made. A null Tracer pointer makes Span a no-op.
 */
class Tracer
{
  public:
    Tracer() : t0_(Clock::now()) { tid_ = rec_.track("perfbench"); }

    u64 open() { stack_.push_back(++lastId_); return lastId_; }

    void
    close(u64 id, const std::string &name, double start_us)
    {
        stack_.pop_back();
        double parent = stack_.empty() ? 0.0
                                       : static_cast<double>(stack_.back());
        rec_.complete(tid_, name, start_us, nowUs() - start_us,
                      {{"id", static_cast<double>(id)}, {"parent", parent}});
    }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
            .count();
    }

    /** Seconds of each span name not covered by its child spans. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::map<u64, double> childUs;
        for (const auto &e : rec_.events())
            childUs[static_cast<u64>(arg(e, "parent"))] += e.dur;
        std::map<std::string, double> self;
        for (const auto &e : rec_.events())
            self[e.name] +=
                (e.dur - childUs[static_cast<u64>(arg(e, "id"))]) * 1e-6;
        return self;
    }

    std::size_t spanCount() const { return rec_.events().size(); }

    void
    writeJson(const std::string &path) const
    {
        std::ofstream os(path);
        if (os)
            rec_.writeJson(os);
    }

  private:
    static double
    arg(const telemetry::TraceRecorder::Event &e, const char *key)
    {
        for (const auto &[k, v] : e.args)
            if (k == key)
                return v;
        return 0.0;
    }

    Clock::time_point t0_;
    telemetry::TraceRecorder rec_;
    u32 tid_ = 0;
    u64 lastId_ = 0;
    std::vector<u64> stack_;
};

class Span
{
  public:
    Span(Tracer *t, std::string name) : t_(t), name_(std::move(name))
    {
        if (t_ != nullptr) {
            id_ = t_->open();
            start_ = t_->nowUs();
        }
    }
    ~Span()
    {
        if (t_ != nullptr)
            t_->close(id_, name_, start_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
    std::string name_;
    u64 id_ = 0;
    double start_ = 0.0;
};

/** Time @p fn under a span named @p name; returns its result. */
template <typename Fn>
auto
traced(Tracer *t, const char *name, Fn &&fn)
{
    Span s(t, name);
    return fn();
}

// --- JSON output ---------------------------------------------------------

class JsonObject
{
  public:
    explicit JsonObject(std::ostream &os) : os_(os) { os_ << "{"; }
    ~JsonObject() { os_ << "}"; }
    JsonObject(const JsonObject &) = delete;
    JsonObject &operator=(const JsonObject &) = delete;

    std::ostream &
    key(const std::string &k)
    {
        if (!first_)
            os_ << ",";
        first_ = false;
        telemetry::jsonString(os_, k);
        os_ << ":";
        return os_;
    }
    void
    num(const std::string &k, double v)
    {
        telemetry::jsonNumber(key(k), v);
    }
    void
    str(const std::string &k, const std::string &v)
    {
        telemetry::jsonString(key(k), v);
    }
    void
    nums(const std::string &k, const std::vector<double> &v)
    {
        std::ostream &os = key(k);
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                os << ",";
            telemetry::jsonNumber(os, v[i]);
        }
        os << "]";
    }
    void
    strs(const std::string &k, const std::vector<std::string> &v)
    {
        std::ostream &os = key(k);
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                os << ",";
            telemetry::jsonString(os, v[i]);
        }
        os << "]";
    }
    void
    numMap(const std::string &k, const std::map<std::string, double> &m)
    {
        JsonObject o(key(k));
        for (const auto &[name, v] : m)
            o.num(name, v);
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

/** Simulated result of one design x workload pair. */
struct PairRow
{
    std::string design, group, workload;
    bool mad = false;
    double seconds = 0.0;
    std::vector<double> model, sim;  ///< per unique segment, cycles
};

/** Raw samples of one run, filled by the workload and printed at exit. */
struct Report
{
    Checks checks;
    std::vector<double> setupS;
    std::vector<double> passS;       ///< untraced pass seconds
    std::vector<double> probeS;      ///< hostProbe() before and after
    std::vector<double> passUnits;   ///< units completed per pass
    std::vector<double> tracedPassS;
    std::vector<double> tracedPassUnits;
    std::map<std::string, double> layers;  ///< per-layer counters
    std::vector<PairRow> pairs;           ///< dse: reference results
    std::vector<double> podSeconds;       ///< dse: pod at 1 and 8 chips
    double maxErr = -1.0;                 ///< ckks: max slot error
    std::map<std::string, std::string> meta;
    std::string unit;  ///< what one pass is made of: "pair" or "inference"
    Tracer *tracer = nullptr;
    u32 tracedUnits = 0;  ///< passes or inferences the tracer covers
};

/** CPU brand string from cpuid leaves 0x80000002-4 ("unknown" if absent). */
std::string
cpuModel()
{
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
        __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s.empty() ? "unknown" : s;
}

/**
 * Start the timed part of a run: probe the host, hand memory that set-up
 * freed back to the system and reset the kernel's resident high-water
 * mark, so that peakRssMb() covers the timed passes and not the set-up
 * (on dse-warm three schedule searches). Records in the metadata whether
 * the reset worked; without it the peak is that of the whole process.
 */
void
startTimed(Report &r)
{
    r.probeS.push_back(hostProbe());
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    r.meta["peak_rss_scope"] =
        clear ? "timed passes" : "whole process (high-water reset failed)";
}

/** End the timed part of a run. */
void
endTimed(Report &r)
{
    r.probeS.push_back(hostProbe());
}

/** Resident high-water mark (VmHWM) in MB; 0 if it cannot be read. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    return 0.0;
}

void
printReport(const Args &a, const Report &r)
{
    std::ostringstream os;
    {
        JsonObject o(os);
        o.str("workload", a.workload);
        o.str("unit", r.unit);
        o.num("seed", static_cast<double>(a.seed));
        o.num("trace", a.trace ? 1.0 : 0.0);
        {
            JsonObject m(o.key("meta"));
            for (const auto &[k, v] : r.meta)
                m.str(k, v);
        }
        o.num("attempted", static_cast<double>(r.checks.attempted));
        o.num("failed", static_cast<double>(r.checks.failed));
        o.strs("failures", r.checks.failures);
        o.nums("setup_s", r.setupS);
        o.num("peak_rss_mb", peakRssMb());
        o.nums("pass_s", r.passS);
        o.nums("probe_s", r.probeS);
        o.nums("pass_units", r.passUnits);
        {
            std::ostream &os = o.key("pairs");
            os << "[";
            for (std::size_t i = 0; i < r.pairs.size(); ++i) {
                const PairRow &p = r.pairs[i];
                if (i)
                    os << ",";
                JsonObject po(os);
                po.str("design", p.design);
                po.str("group", p.group);
                po.str("workload", p.workload);
                po.num("mad", p.mad ? 1.0 : 0.0);
                po.num("seconds", p.seconds);
                po.nums("model_cycles", p.model);
                po.nums("sim_cycles", p.sim);
            }
            os << "]";
        }
        o.nums("pod_seconds", r.podSeconds);
        o.num("max_err", r.maxErr);
        if (a.trace) {
            o.nums("traced_pass_s", r.tracedPassS);
            o.nums("traced_pass_units", r.tracedPassUnits);
            o.numMap("layers", r.layers);
            o.numMap("self_s", r.tracer->selfSeconds());
            o.num("spans", static_cast<double>(r.tracer->spanCount()));
            o.num("traced_units", r.tracedUnits);
        }
    }
    std::cout << os.str() << std::endl;
}

// --- Design-space exploration (dse-cold, dse-warm) ----------------------

struct Pair
{
    baselines::DesignSpec design;
    std::string group;     ///< "36" or "64"
    std::string workload;
};

/**
 * CROPHE-36/64 and the CROPHE-hw+MAD twin of each group, taken from the
 * group lists: designByName("CROPHE-hw+MAD") only finds the 64-bit twin.
 */
std::vector<Pair>
dsePairs()
{
    std::vector<Pair> pairs;
    for (const auto &[group, designs] :
         {std::make_pair(std::string("36"), baselines::designs36()),
          std::make_pair(std::string("64"), baselines::designs64())})
        for (const char *w : {"bootstrap", "helr", "resnet20"})
            for (const auto &d : designs)
                if (d.name == "CROPHE-" + group || d.name == "CROPHE-hw+MAD")
                    pairs.push_back({d, group, w});
    return pairs;
}

/** What one pair produced, plus the per-segment model/sim cycles when the
 *  layered path ran it. */
struct PairOutcome
{
    sched::WorkloadResult res;
    std::vector<double> modelCycles;
    std::vector<double> simCycles;
    sim::SimStats simTotals;
};

/** Everything one pass produced. */
struct PassOutcome
{
    std::vector<PairOutcome> pairs;
    pod::PodResult pod1, pod8;
};

void
addSim(sim::SimStats &acc, const sim::SimStats &s)
{
    acc.cycles += s.cycles;
    acc.events += s.events;
    acc.dramRowHits += s.dramRowHits;
    acc.dramRowMisses += s.dramRowMisses;
}

/**
 * runDesign(d, w, {simulate}) re-composed from the layers' public calls
 * so that each call gets its own span and the analytical estimate of each
 * segment is kept beside its simulated cycles. Mirrors
 * baselines::runDesign for clusters == 1; the benchmark checks that both
 * produce byte-identical results.
 */
PairOutcome
layeredPair(const Pair &p, plan::PlanCache *cache,
            telemetry::SearchTelemetry *search, Tracer *t)
{
    Span pairSpan(t, "pair");
    const baselines::DesignSpec &d = p.design;
    sched::GroupMemo memo;
    sched::SchedOptions opt;
    graph::WorkloadOptions wopt;
    sched::RotationChoice choice;
    if (d.mad) {
        opt = sched::madOptions();
        wopt = sched::madWorkloadOptions();
    } else {
        opt.crossOpDataflow = true;
        opt.nttDecomp = d.nttDecomp;
    }
    opt.memo = &memo;
    opt.planCache = cache;
    opt.search = search;
    if (!d.mad) {
        choice = traced(t, "sched.rot_search", [&] {
            return sched::chooseRotationScheme(p.workload, d.params, d.cfg,
                                               opt, d.hybridRot);
        });
        wopt.rotMode = choice.mode;
        wopt.rHyb = choice.rHyb;
        wopt.ksDataflow = choice.ksDataflow;
        opt.clusters = 1;
    }
    graph::Workload w = traced(t, "graph.build", [&] {
        return graph::buildWorkload(p.workload, d.params, wopt);
    });

    PairOutcome out;
    std::vector<sched::Schedule> schedules;
    for (const auto &seg : w.segments) {
        sched::Schedule s = traced(t, "sched.schedule", [&] {
            return sched::scheduleGraph(seg.graph, d.cfg, opt);
        });
        sim::SimStats st = traced(t, "sim.simulate", [&] {
            return sim::simulateSchedule(s, d.cfg);
        });
        out.modelCycles.push_back(s.stats.cycles);
        out.simCycles.push_back(st.cycles);
        addSim(out.simTotals, st);
        // Same replacement as sim::simulateWorkload.
        double ratio = s.stats.cycles > 0 ? st.cycles / s.stats.cycles : 1.0;
        ratio = std::max(1.0, ratio);
        s.stats.cycles = st.cycles;
        s.warmStats.cycles *= ratio;
        schedules.push_back(std::move(s));
    }
    out.res = sched::aggregateWorkload(w, d.cfg, schedules, opt.clusters,
                                       opt.shareAuxAcrossClusters);
    out.res.design = d.name;
    if (!d.mad) {
        out.res.rotScheme = graph::rotModeName(choice.mode);
        if (choice.mode == graph::RotMode::Hybrid)
            out.res.rotScheme += " r=" + std::to_string(choice.rHyb);
        out.res.ksDataflow = graph::ksDataflowName(choice.ksDataflow);
    }
    return out;
}

/** ResNet-20 on CROPHE-36 over a 1-chip and an 8-chip pod. */
void
runPods(const std::vector<Pair> &pairs, plan::PlanCache *cache, Tracer *t,
        PassOutcome &out)
{
    const baselines::DesignSpec &c36 =
        std::find_if(pairs.begin(), pairs.end(), [](const Pair &p) {
            return p.design.name == "CROPHE-36";
        })->design;
    graph::Workload w = traced(t, "graph.build", [&] {
        return graph::buildWorkload("resnet20", c36.params,
                                    graph::WorkloadOptions{});
    });
    sched::SchedOptions opt;
    opt.planCache = cache;
    for (u32 chips : {1u, 8u}) {
        pod::PodConfig pc;
        pc.chips = chips;
        pod::PodResult r = traced(t, "pod.schedule", [&] {
            return pod::schedulePodWorkload(w, c36.cfg, pc, opt);
        });
        (chips == 1 ? out.pod1 : out.pod8) = std::move(r);
    }
}

/** One pass through the layered path (set-up reference and traced runs). */
PassOutcome
layeredPass(const std::vector<Pair> &pairs, plan::PlanCache *cache,
            telemetry::SearchTelemetry *search, Tracer *t)
{
    Span passSpan(t, "pass");
    PassOutcome out;
    for (const auto &p : pairs)
        out.pairs.push_back(layeredPair(p, cache, search, t));
    runPods(pairs, cache, t, out);
    return out;
}

/** One pass through the user entry point, baselines::runDesign. */
PassOutcome
userPass(const std::vector<Pair> &pairs, plan::PlanCache *cache)
{
    PassOutcome out;
    baselines::RunOptions run;
    run.simulate = true;
    run.planCache = cache;
    for (const auto &p : pairs) {
        PairOutcome o;
        o.res = baselines::runDesign(p.design, p.workload, run);
        out.pairs.push_back(std::move(o));
    }
    runPods(pairs, cache, nullptr, out);
    return out;
}

bool
samePod(const pod::PodResult &a, const pod::PodResult &b)
{
    return a.seconds == b.seconds && a.warmSeconds == b.warmSeconds &&
           a.interchipWords == b.interchipWords &&
           a.transfers == b.transfers &&
           a.maxLinkBusyCycles == b.maxLinkBusyCycles;
}

/** Check every result of @p got against the reference pass @p ref. */
void
checkPass(const std::vector<Pair> &pairs, const PassOutcome &ref,
          const PassOutcome &got, Checks &c)
{
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto &r = got.pairs[i].res;
        const std::string id = pairs[i].design.name + "/" + pairs[i].group +
                               "/" + pairs[i].workload;
        c.check(!r.degraded && std::isfinite(r.stats.cycles) &&
                    r.stats.cycles > 0 && std::isfinite(r.seconds),
                id + ": degraded or non-finite result");
        c.check(plan::workloadResultBytes(r) ==
                    plan::workloadResultBytes(ref.pairs[i].res),
                id + ": result bytes differ from the reference pass");
    }
    for (const auto *pr : {&got.pod1, &got.pod8})
        c.check(!pr->degraded && std::isfinite(pr->seconds) &&
                    pr->seconds > 0,
                "pod: degraded or non-finite result");
    c.check(samePod(got.pod1, ref.pod1) && samePod(got.pod8, ref.pod8),
            "pod: result differs from the reference pass");
}

/** FNV-1a over every pair's serialized result and the pod times: equal
 *  digests mean equal dse results across runs and workloads. */
std::string
resultDigest(const PassOutcome &ref)
{
    u64 h = 1469598103934665603ull;
    auto mix = [&h](const void *data, std::size_t len) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i)
            h = (h ^ p[i]) * 1099511628211ull;
    };
    for (const auto &o : ref.pairs) {
        const auto bytes = plan::workloadResultBytes(o.res);
        mix(bytes.data(), bytes.size());
    }
    for (const auto *pr : {&ref.pod1, &ref.pod8})
        mix(&pr->seconds, sizeof pr->seconds);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

/** Simulated outputs of the reference pass, for perfbench/metrics.py. */
void
recordPairs(const std::vector<Pair> &pairs, const PassOutcome &ref,
            Report &r)
{
    for (std::size_t i = 0; i < pairs.size(); ++i)
        r.pairs.push_back({pairs[i].design.name, pairs[i].group,
                           pairs[i].workload, pairs[i].design.mad,
                           ref.pairs[i].res.seconds, ref.pairs[i].modelCycles,
                           ref.pairs[i].simCycles});
    r.podSeconds = {ref.pod1.seconds, ref.pod8.seconds};
}

/** Per-layer counters of one traced pass (set once; passes are equal). */
void
dseLayers(const PassOutcome &ref, const PassOutcome &traced_pass,
          const telemetry::SearchTelemetry &search, u32 traced_passes,
          const plan::PlanCacheStats &plan, Report &r)
{
    sim::SimStats sim;
    double model = 0, pe = 0, noc = 0, bw = 0;
    double dram = 0, aux = 0;
    for (const auto &o : ref.pairs) {
        addSim(sim, o.simTotals);
        for (double m : o.modelCycles)
            model += m;
    }
    for (const auto &o : traced_pass.pairs) {
        pe += o.res.stats.peUtil;
        noc += o.res.stats.nocUtil;
        bw += o.res.stats.dramBwUtil;
        dram += static_cast<double>(o.res.stats.dramWords);
        aux += static_cast<double>(o.res.stats.auxDramWords);
    }
    const double n = static_cast<double>(traced_pass.pairs.size());
    const double passes = traced_passes;
    auto &L = r.layers;
    L["sched.candidates"] =
        static_cast<double>(search.candidates()) / passes;
    L["sched.enum_analyzed"] = static_cast<double>(search.analyzed()) / passes;
    L["sched.memo_hit_rate"] = search.memoHitRate();
    L["sched.pruned_windows"] =
        static_cast<double>(search.prunedWindows()) / passes;
    const double lookups =
        static_cast<double>(plan.hits + plan.diskHits + plan.misses);
    L["plan.hit_rate"] = lookups > 0 ? (plan.hits + plan.diskHits) / lookups
                                     : 0.0;
    L["plan.disk_hits"] = static_cast<double>(plan.diskHits) / passes;
    L["plan.misses"] = static_cast<double>(plan.misses) / passes;
    L["plan.disk_writes"] = static_cast<double>(plan.diskWrites) / passes;
    L["sim.events"] = static_cast<double>(sim.events);
    L["sim.cycles"] = sim.cycles;
    const double rows =
        static_cast<double>(sim.dramRowHits + sim.dramRowMisses);
    L["sim.dram_row_hit_rate"] = rows > 0 ? sim.dramRowHits / rows : 0.0;
    L["sim.pe_util"] = pe / n;
    L["sim.noc_util"] = noc / n;
    L["sim.dram_bw_util"] = bw / n;
    L["sched.dram_words"] = dram;
    L["sched.aux_dram_words"] = aux;
    L["model.cycles"] = model;
    L["pod.interchip_words"] = static_cast<double>(ref.pod8.interchipWords);
    L["pod.transfers"] = static_cast<double>(ref.pod8.transfers);
    L["pod.max_link_busy_cycles"] = ref.pod8.maxLinkBusyCycles;
}

int
runDse(const Args &a, Report &r)
{
    const bool warm = a.workload == "dse-warm";
    const auto pairs = dsePairs();
    r.unit = "pair";
    r.meta["pairs_per_pass"] = std::to_string(pairs.size());
    r.meta["autotune_tiles"] = "none (fhe not exercised)";

    // Set-up: a reference pass through the layered path over a fresh
    // plan cache (written through to a directory for dse-warm). It yields
    // the results every later pass is checked against and the analytical
    // estimate of each segment.
    PassOutcome ref;
    std::string dir;
    for (u32 k = 0; k < kSetups; ++k) {
        std::string d = warm ? a.state + "/plan-" + std::to_string(getpid()) +
                                   "-" + std::to_string(k)
                             : std::string();
        if (warm)
            fs::remove_all(d);
        auto t0 = Clock::now();
        PassOutcome o;
        {
            plan::PlanCache cache(d);
            o = layeredPass(pairs, &cache, nullptr, nullptr);
        }
        r.setupS.push_back(secondsSince(t0));
        if (k == 0)
            ref = o;
        checkPass(pairs, ref, o, r.checks);
        if (warm && !dir.empty())
            fs::remove_all(dir);
        dir = d;
    }
    recordPairs(pairs, ref, r);
    r.meta["result_digest"] = resultDigest(ref);

    auto userPasses = [&](double budget) {
        auto t0 = Clock::now();
        do {
            std::unique_ptr<plan::PlanCache> cache;
            if (warm)
                cache = std::make_unique<plan::PlanCache>(dir);
            auto p0 = Clock::now();
            PassOutcome o = userPass(pairs, cache.get());
            r.passS.push_back(secondsSince(p0));
            r.passUnits.push_back(static_cast<double>(pairs.size()));
            checkPass(pairs, ref, o, r.checks);
            if (warm) {
                auto st = cache->stats();
                r.checks.check(st.misses == 0 && st.diskHits > 0,
                               "dse-warm: plan cache missed");
            }
        } while (secondsSince(t0) < budget);
    };

    startTimed(r);
    if (!a.trace) {
        userPasses(a.seconds);
    } else {
        // Half the budget untraced, half traced: the difference is the
        // tracing overhead.
        userPasses(a.seconds / 2);
        telemetry::SearchTelemetry search;
        plan::PlanCacheStats planStats;
        PassOutcome last;
        auto t0 = Clock::now();
        do {
            std::unique_ptr<plan::PlanCache> cache;
            if (warm)
                cache = std::make_unique<plan::PlanCache>(dir);
            auto p0 = Clock::now();
            last = layeredPass(pairs, cache.get(), &search, r.tracer);
            r.tracedPassS.push_back(secondsSince(p0));
            r.tracedPassUnits.push_back(static_cast<double>(pairs.size()));
            checkPass(pairs, ref, last, r.checks);
            if (cache) {
                auto st = cache->stats();
                planStats.hits += st.hits;
                planStats.misses += st.misses;
                planStats.diskHits += st.diskHits;
                planStats.diskWrites += st.diskWrites;
            }
            ++r.tracedUnits;
        } while (secondsSince(t0) < a.seconds / 2);
        dseLayers(ref, last, search, r.tracedUnits, planStats, r);
    }
    endTimed(r);
    if (warm)
        fs::remove_all(dir);
    return 0;
}

// --- Encrypted inference (ckks-infer) -----------------------------------

constexpr u32 kN1 = 8, kN2 = 4, kRHyb = 4;
constexpr u32 kDim = kN1 * kN2;
/** Decrypted outputs must match the plaintext reference this closely. */
constexpr double kMaxAbsErr = 1.0 / 1024;

/** HELR sigmoid cubic: 0.5 + 0.197 t - 0.004 t^3. */
const std::vector<double> kSigmoid = {0.5, 0.197, 0.0, -0.004};

fhe::FheContextParams
inferParams()
{
    fhe::FheContextParams p;
    p.n = 1 << 14;
    p.levels = 8;
    p.alpha = 2;
    return p;
}

/** Context and keys: what a client sets up once before inferring. */
struct CkksSession
{
    std::unique_ptr<fhe::FheContext> ctx;
    std::unique_ptr<fhe::KeyGenerator> keygen;
    fhe::PublicKey pk;
    fhe::KswKey rlk;
    fhe::BsgsKeys keys;
};

std::vector<double>
randomVector(Rng &rng, u64 n)
{
    std::vector<double> v(n);
    for (auto &e : v)
        e = rng.nextDouble() - 0.5;
    return v;
}

/** Tile widths the process-wide autotuner uses for each limb bucket. */
std::string
tilesInUse(u64 n)
{
    std::string s;
    const auto b = fhe::kernels::activeBackend();
    for (u64 limbs : {2u, 4u, 8u}) {
        if (!s.empty())
            s += ",";
        s += std::to_string(limbs) + ":" +
             std::to_string(fhe::kernels::autotuner().batchTile(n, limbs, b));
    }
    return s;
}

/** Median of @p reps timed calls of @p fn, in ms. */
double
medianMs(u32 reps, const std::function<void()> &fn)
{
    std::vector<double> ms;
    for (u32 i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        fn();
        ms.push_back(secondsSince(t0) * 1e3);
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

int
runCkks(const Args &a, Report &r)
{
    r.unit = "inference";
    const fhe::FheContextParams params = inferParams();

    Rng rng(a.seed);
    std::vector<std::vector<double>> m(kDim);
    for (auto &row : m)
        row = randomVector(rng, kDim);

    // Set-up, several times: autotuning as a fresh process pays it (a
    // private tuner: the process-wide one stays pinned, see main), the
    // context, and key generation.
    std::vector<double> autotuneS, contextS, keygenS;
    std::unique_ptr<CkksSession> session;
    for (u32 k = 0; k < kSetups; ++k) {
        session.reset();
        session = std::make_unique<CkksSession>();
        CkksSession &sess = *session;
        auto t0 = Clock::now();
        {
            fhe::kernels::Autotuner tuner("");
            std::string picked;
            for (u64 limbs : {2u, 4u, 8u})
                picked += (picked.empty() ? "" : ",") +
                          std::to_string(limbs) + ":" +
                          std::to_string(tuner.batchTile(
                              params.n, limbs, fhe::kernels::activeBackend()));
            r.meta["autotune_tiles_fresh"] = picked;
        }
        auto t1 = Clock::now();
        sess.ctx = std::make_unique<fhe::FheContext>(params);
        auto t2 = Clock::now();
        sess.keygen = std::make_unique<fhe::KeyGenerator>(*sess.ctx, a.seed);
        sess.pk = sess.keygen->makePublicKey();
        sess.rlk = sess.keygen->makeRelinKey();
        for (i64 rot : fhe::requiredRotations(kN1, kN2,
                                              fhe::RotStrategy::Hybrid, kRHyb))
            sess.keys.rot.emplace(rot, sess.keygen->makeRotationKey(rot));
        auto t3 = Clock::now();
        autotuneS.push_back(std::chrono::duration<double>(t1 - t0).count());
        contextS.push_back(std::chrono::duration<double>(t2 - t1).count());
        keygenS.push_back(std::chrono::duration<double>(t3 - t2).count());
        r.setupS.push_back(std::chrono::duration<double>(t3 - t0).count());
    }
    const CkksSession &sess = *session;
    const fhe::FheContext &ctx = *sess.ctx;
    fhe::Evaluator eval(ctx, a.seed);
    const u64 slots = ctx.n() / 2;
    const auto diags = fhe::matrixDiagonals(m, slots);
    double maxErr = 0.0;
    std::map<std::string, std::vector<double>> phaseMs;
    std::vector<double> nttCounts;

    // One inference: encode, encrypt, matvec, polynomial, decrypt,
    // decode, then the check against the plaintext reference.
    auto infer = [&](Tracer *t) {
        std::vector<double> x = randomVector(rng, kDim);
        std::vector<double> tiled(slots);
        for (u64 i = 0; i < slots; ++i)
            tiled[i] = x[i % kDim];
        fhe::resetNttLimbTransforms();
        Span inf(t, "inference");
        auto phase = [&](const char *name, auto &&fn) {
            auto t0 = Clock::now();
            auto out = traced(t, name, fn);
            if (t != nullptr)
                phaseMs[name].push_back(secondsSince(t0) * 1e3);
            return out;
        };
        auto pt = phase("fhe.encode", [&] {
            return eval.encoder().encodeReal(tiled, ctx.maxLevel());
        });
        auto ct =
            phase("fhe.encrypt", [&] { return eval.encrypt(pt, sess.pk); });
        auto wx = phase("fhe.matvec", [&] {
            return fhe::ptMatVecMult(eval, ct, diags, kN1, kN2,
                                     fhe::RotStrategy::Hybrid, kRHyb,
                                     sess.keys);
        });
        auto y = phase("fhe.poly", [&] {
            return fhe::evalPolyHorner(eval, wx, kSigmoid, sess.rlk);
        });
        auto dec = phase("fhe.decrypt", [&] {
            return eval.decrypt(y, sess.keygen->secretKey());
        });
        auto out =
            phase("fhe.decode", [&] { return eval.encoder().decode(dec); });
        nttCounts.push_back(static_cast<double>(fhe::nttLimbTransforms()));

        const auto wxRef = fhe::matVecRef(m, x);
        double err = 0.0;
        for (u64 i = 0; i < slots; ++i)
            err = std::max(err, std::abs(out[i].real() -
                                         fhe::evalPolyRef(kSigmoid,
                                                          wxRef[i % kDim])));
        maxErr = std::max(maxErr, err);
        r.checks.check(std::isfinite(err) && err <= kMaxAbsErr,
                       "inference: max slot error " + std::to_string(err));
    };

    // Warm-up: lazy tables (BConv, automorphism maps, autotuned tiles for
    // every limb bucket) are built on first use, not per inference. They
    // are part of what inference keeps resident, so the timed part, and
    // its peak memory, starts before them.
    startTimed(r);
    infer(nullptr);
    r.meta["autotune_tiles"] = tilesInUse(params.n);

    auto loop = [&](double budget, Tracer *t, std::vector<double> &pass_s,
                    std::vector<double> &pass_units) {
        auto t0 = Clock::now();
        do {
            auto i0 = Clock::now();
            infer(t);
            pass_s.push_back(secondsSince(i0));
            pass_units.push_back(1.0);
        } while (secondsSince(t0) < budget);
    };
    if (!a.trace) {
        loop(a.seconds, nullptr, r.passS, r.passUnits);
    } else {
        loop(a.seconds / 2, nullptr, r.passS, r.passUnits);
        nttCounts.clear();
        loop(a.seconds / 2, r.tracer, r.tracedPassS, r.tracedPassUnits);
        r.tracedUnits = static_cast<u32>(r.tracedPassS.size());
    }
    endTimed(r);
    r.maxErr = maxErr;

    if (a.trace) {
        auto median = [](std::vector<double> v) {
            std::sort(v.begin(), v.end());
            return v[v.size() / 2];
        };
        auto &L = r.layers;
        for (const auto &[name, ms] : phaseMs)
            L[name + "_ms"] = median(ms);
        L["fhe.ntt_limb_transforms"] = median(nttCounts);
        L["fhe.context_s"] = median(contextS);
        L["fhe.keygen_s"] = median(keygenS);
        L["kernels.autotune_s"] = median(autotuneS);

        // Single operations on a fresh level-L ciphertext.
        fhe::Ciphertext ct = eval.encrypt(
            eval.encoder().encodeReal(randomVector(rng, slots),
                                      ctx.maxLevel()),
            sess.pk);
        const auto &[rot, rk] = *sess.keys.rot.begin();
        constexpr u32 kReps = 7;
        L["fhe.rotate_ms"] =
            medianMs(kReps, [&] { (void)eval.rotate(ct, rot, rk); });
        fhe::Ciphertext prod;
        L["fhe.mul_relin_ms"] =
            medianMs(kReps, [&] { prod = eval.mul(ct, ct, sess.rlk); });
        L["fhe.rescale_ms"] =
            medianMs(kReps, [&] { (void)eval.rescale(prod); });
        L["fhe.keyswitch_ms"] = medianMs(kReps, [&] {
            (void)eval.keySwitch(ct.a, ct.level, sess.rlk);
        });
        fhe::RnsPoly poly = ct.b;
        const double limbs = poly.limbCount();
        L["kernels.ntt_us_per_limb"] =
            medianMs(kReps, [&] {
                poly.toCoeff();
                poly.toEval();
            }) * 1e3 / (2.0 * limbs);
        L["fhe.arena_peak_bytes"] =
            static_cast<double>(ScratchArena::globalPeakBytes());
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    ThreadPool::setGlobalThreads(kThreads);
    // The autotuner picks NTT tiles by timing, so a process tuned on a
    // busy host can pick other tiles and shift every inference. Create the
    // process-wide tuner with tuning off: it keeps its fixed default tiles
    // in every run and every checkout. Private tuners made later (the
    // set-up's autotune_s) read the environment again and still tune.
    setenv("CROPHE_AUTOTUNE", "off", 1);
    (void)fhe::kernels::autotuner();
    unsetenv("CROPHE_AUTOTUNE");
    std::error_code ec;
    fs::create_directories(a.state, ec);

    Report r;
    Tracer tracer;
    if (a.trace)
        r.tracer = &tracer;
    r.meta["cpu"] = cpuModel();
    r.meta["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    r.meta["threads"] = std::to_string(ThreadPool::globalThreads());
    r.meta["backend"] = fhe::kernels::table().name;
    r.meta["build_type"] = CROPHE_PERFBENCH_BUILD_TYPE;
    r.meta["workload"] = a.workload;
    try {
        if (a.workload == "ckks-infer")
            runCkks(a, r);
        else
            runDse(a, r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (a.trace)
        tracer.writeJson(a.state + "/trace-" + a.workload + ".json");
    printReport(a, r);
    return 0;
}
