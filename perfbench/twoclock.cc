/**
 * @file
 * The two-clock benchmark binary (README.md next to this file has the
 * metric definitions and the reasons behind each workload).
 *
 *   twoclock --workload kv-read|kv-write|splash16 --seed N --seconds S
 *            --trace 0|1 [--requests N]
 *
 * --trace 0 measures the end-to-end metrics on untraced runs of the
 * serial engine. --trace 1 makes an untraced and a traced run of the
 * same inputs, runs the host-cost probe loops and reports the per-layer
 * metrics. Every run checks its outputs and digests every simulated
 * result. Human-readable lines come first; the last line of stdout is
 * one JSON object {correct, attempted, failed, metrics}. Exit status: 0
 * when every operation succeeded and every check held, 1 otherwise, 2
 * on a usage error.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/splash.hh"
#include "probes.hh"
#include "sim/trace.hh"
#include "svc/report.hh"
#include "svc/service.hh"

using namespace cables;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** Host cost of one call. */
struct HostCost
{
    double wall = 0; ///< steady-clock seconds
    double sys = 0;  ///< kernel seconds of this process
};

/** Run @p fn and measure it on the host clocks. */
HostCost
timed(const std::function<void()> &fn)
{
    rusage r0{}, r1{};
    getrusage(RUSAGE_SELF, &r0);
    auto t0 = Clock::now();
    fn();
    HostCost c;
    c.wall = since(t0);
    getrusage(RUSAGE_SELF, &r1);
    c.sys = seconds(r1.ru_stime) - seconds(r0.ru_stime);
    return c;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
counter(const metrics::Snapshot &s, const char *name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

/**
 * FNV-1a over the canonical text of simulated results. Doubles enter
 * as hex floats, so equal digests mean bit-identical values.
 */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s)
            mix(c);
        mix(0xff); // field separator
    }

    void
    addNumber(double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%a", v);
        add(buf);
    }

    /** Every statistic of @p s, including its histogram at 0.1% steps. */
    void
    addStat(const Stat &s)
    {
        addNumber(static_cast<double>(s.count()));
        addNumber(s.sum());
        addNumber(s.min());
        addNumber(s.max());
        addNumber(s.stddev());
        for (int k = 1; k < 1000; ++k)
            addNumber(s.percentile(k / 10.0));
    }

    uint64_t value() const { return h_; }

  private:
    void
    mix(unsigned char c)
    {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }

    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Host-clock spans the benchmark records around its own calls into the
 * simulator (runService, runProgram and the apps::run* kernel). They
 * stay in memory and are folded per name at the end.
 */
class HostSpans
{
  public:
    /** RAII span, recorded when @p spans is non-null. */
    class Scope
    {
      public:
        Scope(HostSpans *spans, const char *name)
            : spans_(spans), name_(name), t0_(Clock::now())
        {}

        ~Scope()
        {
            if (spans_)
                spans_->spans_.push_back({name_, t0_, Clock::now()});
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostSpans *spans_;
        const char *name_;
        Clock::time_point t0_;
    };

    /** name -> (count, total seconds), sorted by name. */
    std::map<std::string, std::pair<int, double>>
    summary() const
    {
        std::map<std::string, std::pair<int, double>> out;
        for (const Span &sp : spans_) {
            auto &e = out[sp.name];
            e.first += 1;
            e.second +=
                std::chrono::duration<double>(sp.end - sp.start).count();
        }
        return out;
    }

  private:
    struct Span
    {
        const char *name;
        Clock::time_point start, end;
    };

    std::vector<Span> spans_;
};

/** Virtual-time aggregates of the closed spans of one op type. */
struct SpanOp
{
    uint64_t count = 0;
    double totalUs = 0; ///< summed span durations
    double p99Us = 0;   ///< exact nearest-rank p99 of the durations
    std::array<double, sim::kNumSpanComps> compUs{};
};

/** Closed spans of every tracer, aggregated per op type. */
std::map<std::string, SpanOp>
aggregateSpans(const std::vector<const sim::Tracer *> &tracers)
{
    std::map<std::string, std::vector<sim::Tick>> durs;
    std::map<std::string, SpanOp> ops;
    for (const sim::Tracer *t : tracers) {
        for (const sim::Span &s : t->spans()) {
            if (s.open)
                continue;
            SpanOp &op = ops[s.op];
            op.count += 1;
            op.totalUs += sim::toUs(s.end - s.start);
            for (int c = 0; c < sim::kNumSpanComps; ++c)
                op.compUs[c] += sim::toUs(s.comp[c]);
            durs[s.op].push_back(s.end - s.start);
        }
    }
    for (auto &[name, v] : durs) {
        std::sort(v.begin(), v.end());
        size_t i = static_cast<size_t>(
            std::ceil(0.99 * static_cast<double>(v.size())));
        ops[name].p99Us = sim::toUs(v[std::max<size_t>(i, 1) - 1]);
    }
    return ops;
}

/** A spans-only tracer that never drops a span. */
void
armTracer(sim::Tracer *t)
{
    t->setEventsEnabled(false);
    t->enableSpans(true);
    t->setSpanCapacity(std::numeric_limits<size_t>::max());
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< clock and sample size, for the human lines
};

/** What a benchmark run found. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;        ///< every check held
    std::vector<Metric> report; ///< the JSON metrics, in order
    std::vector<Metric> extra;  ///< printed only (not in the JSON)
    std::string digest;         ///< of every simulated result
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint64_t requests = 0; ///< kv requests per run; 0 = the default
};

// ------------------------------------------------------ timed passes

/** One pass of a workload's timed unit of work. */
struct Pass
{
    HostCost cost;
    uint64_t ops = 0;    ///< requests or app runs attempted
    uint64_t failed = 0; ///< of those, the ones that failed
    uint64_t digest = 0; ///< of every simulated result
};

/** Set-ups before each timed pass; setup_s is the median of all. */
constexpr int kSetupsPerPass = 2;

/**
 * The untraced measurement every workload shares: passes until the
 * next one would overrun --seconds (at least three), each preceded by
 * kSetupsPerPass calls of @p setup, so both sample the whole run. Every
 * pass must reproduce the first bit for bit. @p what names one pass
 * for the human lines.
 *
 * wall_s is the fastest pass: on a shared host, interference only ever
 * slows a pass, and the median of the passes moved by 20% between runs
 * where the minimum moved by 8%. setup_s is the median of all set-ups.
 */
Outcome
measureTimed(const Options &o, const std::function<void()> &setup,
             const std::function<Pass()> &pass, const std::string &what)
{
    Outcome out;
    auto start = Clock::now();
    std::vector<double> setups, wall;
    uint64_t digest = 0;
    do {
        for (int i = 0; i < kSetupsPerPass; ++i)
            setups.push_back(timed(setup).wall);
        Pass p = pass();
        wall.push_back(p.cost.wall);
        out.attempted += p.ops;
        out.failed += p.failed;
        if (wall.size() == 1) {
            digest = p.digest;
        } else if (p.digest != digest) {
            out.fail("pass " + std::to_string(wall.size()) +
                     " is not bit-identical to pass 1");
            out.failed += p.ops - p.failed;
        }
    } while (wall.size() < 3 || since(start) + median(wall) <= o.seconds);

    std::string passes =
        std::to_string(wall.size()) + " passes of " + what;
    out.report.push_back({"wall_s", *std::min_element(wall.begin(), wall.end()),
                          "s", "host, fastest of " + passes});
    out.report.push_back({"setup_s", median(setups), "s",
                          "host, median of " +
                              std::to_string(setups.size()) + " set-ups"});
    out.report.push_back({"peak_rss_mb", peakRssMb(), "MB",
                          "host, whole process"});
    out.extra.push_back({"wall_median_s", median(wall), "s",
                         "host, median of " + passes});
    out.digest = hex(digest);
    return out;
}

// ---------------------------------------------------------------- kv

/**
 * Requests per kv pass: about half a second of host time, so a run of
 * 30 s has some 60 passes for its fastest-pass minimum to choose from.
 */
constexpr uint64_t kKvRequests = 50000;

/**
 * bench_service's baseConfig: 4 shards on 4 nodes plus a spare, two
 * open-loop Poisson clients at 2800 req/s, Zipf 0.99 over 32768 keys.
 * kv-read is 90% GET with epoch-heat homing; kv-write is 50% PUT with
 * migration off, the paper's configuration.
 */
svc::ServiceConfig
kvConfig(const Options &o)
{
    svc::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.serviceNodes = 4;
    cfg.spareNodes = 1;
    cfg.clients = 2;
    cfg.keys = 32768;
    cfg.valueBytes = 192;
    cfg.payloadBytes = 64;
    cfg.readPct = 90;
    cfg.zipfTheta = 0.99;
    cfg.seed = o.seed;
    cfg.serviceCompute = 2 * sim::US;
    cfg.migration = svm::MigrationPolicy::EpochHeat;
    cfg.arrival.kind = svc::ArrivalSpec::Kind::Poisson;
    cfg.arrival.rateRps = 2800.0;
    cfg.requests = o.requests ? o.requests : kKvRequests;
    if (o.workload == "kv-write") {
        cfg.readPct = 50;
        cfg.migration = svm::MigrationPolicy::Off;
    }
    return cfg;
}

struct KvRun
{
    svc::ServiceResult res;
    HostCost cost;       ///< of the runService call
    uint64_t failed = 0; ///< requests that count as failed
    uint64_t digest = 0;
};

uint64_t
kvDigest(const svc::ServiceConfig &cfg, const svc::ServiceResult &r)
{
    Digest d;
    d.add(svc::serviceReport("kv", cfg, r).dump());
    d.add(r.metrics.toJson().dump());
    d.addStat(r.latAll);
    d.addStat(r.latGet);
    d.addStat(r.latPut);
    return d.value();
}

/**
 * One runService call. A request fails if it did not complete; every
 * request of the run fails if the totals are inconsistent (PUTs count
 * as hits, so hits + misses must equal the completed requests).
 */
KvRun
kvRun(const svc::ServiceConfig &cfg, const svc::ServiceHooks &hooks,
      HostSpans *spans)
{
    KvRun run;
    run.cost = timed([&]() {
        HostSpans::Scope s(spans, "runService");
        run.res = svc::runService(cfg, sim::EngineConfig{}, hooks);
    });
    const svc::ServiceResult &r = run.res;
    bool consistent = r.injected == cfg.requests &&
                      r.gets + r.puts == r.completed &&
                      r.hits + r.misses == r.completed &&
                      r.latAll.count() == r.completed;
    run.failed = consistent
                     ? cfg.requests - std::min(cfg.requests, r.completed)
                     : cfg.requests;
    run.digest = kvDigest(cfg, r);
    return run;
}

/** The virtual end-to-end results of a kv run. */
void
kvVirtual(const svc::ServiceResult &r, std::vector<Metric> *out)
{
    std::string n = std::to_string(r.latAll.count()) + " requests";
    out->push_back({"virt_mean_us", r.latAll.mean(), "us",
                    "virtual, exact mean over " + n});
    out->push_back({"virt_p50_us", r.latAll.p50(), "us",
                    "virtual, util::Stat bucket, " + n});
    out->push_back({"virt_p99_us", r.latAll.p99(), "us",
                    "virtual, util::Stat bucket, " + n});
    out->push_back({"virt_p999_us", r.latAll.p999(), "us",
                    "virtual, util::Stat bucket, " + n});
}

Outcome
kvTimed(const Options &o)
{
    svc::ServiceConfig cfg = kvConfig(o);
    // Set-up: the same service with no requests (cluster build, bulk
    // load of every key, worker spawn, drain).
    svc::ServiceConfig idle = cfg;
    idle.requests = 0;
    bool idleOk = true;
    svc::ServiceResult first;
    bool haveFirst = false;
    Outcome out = measureTimed(
        o,
        [&]() {
            svc::ServiceResult r =
                svc::runService(idle, sim::EngineConfig{});
            idleOk = idleOk && r.injected == 0 && r.completed == 0;
        },
        [&]() {
            KvRun run = kvRun(cfg, {}, nullptr);
            Pass p{run.cost, cfg.requests, run.failed, run.digest};
            if (!haveFirst) {
                first = std::move(run.res);
                haveFirst = true;
            }
            return p;
        },
        std::to_string(cfg.requests) + " requests");
    if (!idleOk)
        out.fail("a set-up run served requests");
    kvVirtual(first, &out.extra);
    return out;
}

// ----------------------------------------------------------- splash16

constexpr int kSplashProcs = 16;

cs::ClusterConfig
splashCluster()
{
    return apps::splashConfig(cs::Backend::CableS, kSplashProcs);
}

struct AppRun
{
    std::string name;
    apps::AppOut out;
    apps::RunResult res;
};

struct SplashRun
{
    std::vector<AppRun> apps;
    HostCost cost;       ///< of the eight runProgram calls
    uint64_t failed = 0; ///< invalid or aborted app runs
    uint64_t digest = 0;
};

/**
 * One pass over apps::splashSuite() at Figure-5 sizes on the CableS
 * backend, one runProgram call per app. With @p tracers, each run gets
 * a fresh spans-only tracer appended there.
 */
SplashRun
splashRun(HostSpans *spans,
          std::vector<std::unique_ptr<sim::Tracer>> *tracers)
{
    SplashRun run;
    run.cost = timed([&]() {
        for (const apps::SplashAppEntry &app : apps::splashSuite()) {
            AppRun a;
            a.name = app.name;
            apps::RunOptions ro;
            if (tracers) {
                tracers->push_back(std::make_unique<sim::Tracer>());
                armTracer(tracers->back().get());
                ro.instr.tracer = tracers->back().get();
            }
            HostSpans::Scope s(spans, "runProgram");
            a.res = apps::runProgram(
                splashCluster(),
                [&](cs::Runtime &rt, apps::RunResult &) {
                    m4::M4Env env(rt);
                    HostSpans::Scope k(spans, "kernel");
                    app.run(env, kSplashProcs, a.out);
                },
                ro);
            run.apps.push_back(std::move(a));
        }
    });
    Digest d;
    for (const AppRun &a : run.apps) {
        if (!a.out.valid || a.res.registrationFailure)
            run.failed += 1;
        d.add(a.name);
        d.addNumber(static_cast<double>(a.out.parallel));
        d.addNumber(a.out.checksum);
        d.addNumber(static_cast<double>(a.res.total));
        d.add(a.out.valid ? "valid" : "invalid");
        d.add(a.res.metrics.toJson().dump());
    }
    run.digest = d.value();
    return run;
}

/** Geometric mean of AppOut::parallel, in virtual ms (Figure 5). */
double
parallelGeoMeanMs(const SplashRun &run)
{
    double logSum = 0;
    for (const AppRun &a : run.apps)
        logSum += std::log(sim::toMs(a.out.parallel));
    return std::exp(logSum / static_cast<double>(run.apps.size()));
}

Outcome
splashTimed(const Options &o)
{
    SplashRun first;
    bool haveFirst = false;
    Outcome out = measureTimed(
        o,
        []() {
            // Set-up: the cluster with an empty program, once per app.
            for (size_t a = 0; a < apps::splashSuite().size(); ++a) {
                apps::runProgram(splashCluster(),
                                 [](cs::Runtime &, apps::RunResult &) {});
            }
        },
        [&]() {
            SplashRun run = splashRun(nullptr, nullptr);
            Pass p{run.cost, run.apps.size(), run.failed, run.digest};
            if (!haveFirst) {
                first = std::move(run);
                haveFirst = true;
            }
            return p;
        },
        "8 apps");
    out.extra.push_back({"virt_par_ms", parallelGeoMeanMs(first), "ms",
                         "virtual, geometric mean over 8 apps"});
    for (const AppRun &a : first.apps) {
        out.extra.push_back({"app." + a.name + ".par_ms",
                             sim::toMs(a.out.parallel), "ms",
                             a.out.valid ? "virtual, valid"
                                         : "virtual, INVALID"});
    }
    return out;
}

// -------------------------------------------------------- traced runs

/** Least host time the probe loops get in a traced run (seconds). */
constexpr double kMinProbeBudget = 1.0;

/** The probes get what is left of --seconds after the runs. */
double
probeBudget(const Options &o, Clock::time_point start)
{
    return std::max(kMinProbeBudget, o.seconds - since(start));
}

/**
 * The per-layer metrics every workload shares: op counts from the
 * metrics snapshot, virtual time from the spans, host cost from the
 * probes. @p ops is the number of requests or app runs.
 */
void
layerMetrics(const metrics::Snapshot &m,
             const std::map<std::string, SpanOp> &spans, double ops,
             const std::vector<perfbench::Probe> &probes,
             std::vector<Metric> *out)
{
    auto per = [&](const char *name) {
        return ratio(static_cast<double>(counter(m, name)), ops);
    };
    auto span = [&](const char *op) {
        auto it = spans.find(op);
        return it == spans.end() ? SpanOp{} : it->second;
    };
    auto add = [&](const char *name, double v, const char *unit,
                   const char *note) {
        out->push_back({name, v, unit, note});
    };
    auto addProbe = [&](const char *name) {
        for (const perfbench::Probe &p : probes) {
            if (p.name == name)
                out->push_back({name, p.value, p.unit, "host, probe loop"});
        }
    };
    const int kWire = static_cast<int>(sim::SpanComp::Wire);
    const int kQueue = static_cast<int>(sim::SpanComp::Queue);
    // The queue component of lock_acquire and barrier spans is mostly
    // the blocked wait for the grant or the last arrival: a cables
    // metric, not NIC queueing, so the net layer leaves it out.
    double wireUs = 0, queueUs = 0;
    for (const auto &[op, agg] : spans) {
        wireUs += agg.compUs[kWire];
        if (op != "lock_acquire" && op != "barrier")
            queueUs += agg.compUs[kQueue];
    }
    const char *perOp = "per op";

    add("sim.switches_per_op", per("sim.switches"), "count", perOp);
    addProbe("sim.host_ns_per_switch");

    add("net.msgs_per_op",
        ratio(static_cast<double>(counter(m, "san.messages") +
                                  counter(m, "san.fetches") +
                                  counter(m, "san.notifications")),
              ops),
        "count", perOp);
    add("net.bytes_per_op", per("san.bytes"), "B", perOp);
    addProbe("net.host_ns_per_msg");
    add("net.wire_us_per_op", ratio(wireUs, ops), "us",
        "virtual, wire component of all spans");
    add("net.queue_us_per_op", ratio(queueUs, ops), "us",
        "virtual, queue component of non-sync spans");

    add("vmmc.gather_writes_per_op", per("vmmc.gather_writes"), "count",
        perOp);
    addProbe("vmmc.host_ns_per_fetch");

    add("svm.read_faults_per_op", per("svm.read_faults"), "count", perOp);
    add("svm.fetches_per_op", per("svm.pages_fetched"), "count", perOp);
    add("svm.invalidations_per_op", per("svm.invalidations"), "count",
        perOp);
    add("svm.migrations_per_op", per("svm.migrations"), "count", perOp);
    add("svm.page_fetch_us_per_op", ratio(span("page_fetch").totalUs, ops),
        "us", "virtual, page_fetch spans");
    add("svm.page_fetch_p99_us", span("page_fetch").p99Us, "us",
        "virtual, exact p99 of page_fetch spans");
    add("svm.write_faults_per_op", per("svm.write_faults"), "count",
        perOp);
    add("svm.diffs_per_op", per("svm.diffs_flushed"), "count", perOp);
    add("svm.diff_bytes_per_op", per("svm.diff_bytes"), "B", perOp);
    add("svm.write_notices_per_op", per("svm.write_notices"), "count",
        perOp);
    add("svm.diff_us_per_op",
        ratio(span("diff_flush").totalUs + span("diff_gather").totalUs,
              ops),
        "us", "virtual, diff_flush + diff_gather spans");
    addProbe("svm.host_ns_per_fault");
    addProbe("svm.host_ns_per_hit");

    SpanOp lock = span("lock_acquire");
    add("cables.lock_acquires_per_op",
        ratio(static_cast<double>(lock.count), ops), "count",
        "lock_acquire spans per op");
    add("cables.lock_wait_us_per_op", ratio(lock.compUs[kQueue], ops),
        "us", "virtual, queue component of lock_acquire spans");
    add("cables.lock_acquire_p99_us", lock.p99Us, "us",
        "virtual, exact p99 of lock_acquire spans");
    add("cables.barrier_p99_us", span("barrier").p99Us, "us",
        "virtual, exact p99 of barrier spans");
    add("cables.allocs_per_op", per("mem.allocs"), "count", perOp);
    add("cables.pool_local_ratio",
        ratio(static_cast<double>(counter(m, "mem.pool_remote_avoided")),
              static_cast<double>(counter(m, "mem.pool_allocs") +
                                  counter(m, "mem.pool_frees"))),
        "ratio", "off-master pool ops / pool ops");
    addProbe("cables.host_ns_per_lock");
    addProbe("cables.host_ns_per_alloc");
    addProbe("cables.host_us_per_barrier");
}

/**
 * What a traced run of any workload reports besides the layer metrics:
 * the probes' checks, the span and host-span breakdown for the human
 * lines, and the trace layer's own cost.
 */
void
traceSummary(const std::map<std::string, SpanOp> &spans,
             const HostSpans &host, const HostCost &plain,
             const HostCost &traced, uint64_t dropped, Outcome *out)
{
    out->report.push_back({"trace.overhead_x",
                           ratio(traced.wall, plain.wall), "x",
                           "host, traced / untraced wall"});
    out->report.push_back({"trace.dropped_spans",
                           static_cast<double>(dropped), "count",
                           "must be 0"});
    if (dropped != 0)
        out->fail("tracer dropped spans");
    for (const auto &[op, agg] : spans) {
        out->extra.push_back({"span." + op, agg.totalUs, "us",
                              "virtual, " + std::to_string(agg.count) +
                                  " spans, p99 " +
                                  std::to_string(agg.p99Us) + " us"});
    }
    for (const auto &[name, e] : host.summary()) {
        out->extra.push_back({"host_span." + name, e.second, "s",
                              std::to_string(e.first) + " calls"});
    }
    out->extra.push_back({"peak_rss_mb", peakRssMb(), "MB",
                          "host, whole process"});
}

std::vector<perfbench::Probe>
probesChecked(const Options &o, Clock::time_point start, Outcome *out)
{
    std::vector<perfbench::Probe> probes =
        perfbench::runProbes(probeBudget(o, start));
    for (const perfbench::Probe &p : probes) {
        if (!p.ok)
            out->fail("probe " + p.name + " did not do its work");
    }
    return probes;
}

Outcome
kvTraced(const Options &o)
{
    Outcome out;
    svc::ServiceConfig cfg = kvConfig(o);
    HostSpans host;
    auto start = Clock::now();

    // A first run warms the process (heap, lazily mapped pages), so
    // the untraced and the traced run below start alike.
    KvRun warm = kvRun(cfg, {}, nullptr);
    KvRun plain = kvRun(cfg, {}, &host);
    sim::Tracer tracer;
    armTracer(&tracer);
    svc::ServiceHooks hooks;
    hooks.tracer = &tracer;
    hooks.oracle = true;
    KvRun traced = kvRun(cfg, hooks, &host);

    out.attempted = 3 * cfg.requests;
    out.failed = warm.failed + plain.failed + traced.failed;
    if (warm.digest != plain.digest)
        out.fail("repeated untraced runs differ");
    if (traced.digest != plain.digest)
        out.fail("traced results differ from untraced results");
    if (!traced.res.oracleClean) {
        out.fail("invariant oracle found " +
                 std::to_string(traced.res.oracleViolations) +
                 " violations");
    }
    std::vector<perfbench::Probe> probes = probesChecked(o, start, &out);

    const svc::ServiceResult &r = plain.res;
    auto spans = aggregateSpans({&tracer});
    out.report.push_back({"sim.sys_s", plain.cost.sys, "s",
                          "host, kernel time of the untraced run"});
    layerMetrics(r.metrics, spans, static_cast<double>(cfg.requests),
                 probes, &out.report);
    out.report.push_back({"apps.host_kernel_s", 0.0, "s", "n/a on kv"});
    out.report.push_back({"apps.host_harness_s", 0.0, "s", "n/a on kv"});
    uint64_t backlog = 0;
    for (const svc::ShardSummary &s : r.shards)
        backlog = std::max(backlog, s.backlogPeak);
    out.report.push_back({"svc.get_mean_us", r.latGet.mean(), "us",
                          "virtual, exact mean"});
    out.report.push_back({"svc.put_mean_us", r.latPut.mean(), "us",
                          "virtual, exact mean"});
    out.report.push_back({"svc.get_p99_us", r.latGet.p99(), "us",
                          "virtual, util::Stat bucket, " +
                              std::to_string(r.latGet.count()) + " GETs"});
    out.report.push_back({"svc.put_p99_us", r.latPut.p99(), "us",
                          "virtual, util::Stat bucket, " +
                              std::to_string(r.latPut.count()) + " PUTs"});
    out.report.push_back({"svc.backlog_peak", static_cast<double>(backlog),
                          "count", "max shard backlog"});
    traceSummary(spans, host, plain.cost, traced.cost,
                 tracer.droppedSpans(), &out);
    kvVirtual(r, &out.report);
    out.report.push_back({"virt_par_ms", 0.0, "ms", "n/a on kv"});
    out.digest = hex(plain.digest);
    return out;
}

Outcome
splashTraced(const Options &o)
{
    Outcome out;
    HostSpans host;
    auto start = Clock::now();

    SplashRun warm = splashRun(nullptr, nullptr); // as in kvTraced
    SplashRun plain = splashRun(&host, nullptr);
    auto hostSummary = host.summary();
    std::vector<std::unique_ptr<sim::Tracer>> tracers;
    SplashRun traced = splashRun(nullptr, &tracers);

    out.attempted = warm.apps.size() + plain.apps.size() +
                    traced.apps.size();
    out.failed = warm.failed + plain.failed + traced.failed;
    if (warm.digest != plain.digest)
        out.fail("repeated untraced passes differ");
    if (traced.digest != plain.digest)
        out.fail("traced results differ from untraced results");
    uint64_t dropped = 0;
    std::vector<const sim::Tracer *> views;
    for (const auto &t : tracers) {
        dropped += t->droppedSpans();
        views.push_back(t.get());
    }
    std::vector<perfbench::Probe> probes = probesChecked(o, start, &out);

    metrics::Snapshot m;
    for (const AppRun &a : plain.apps)
        m.merge(a.res.metrics);
    auto spans = aggregateSpans(views);
    double kernel = hostSummary["kernel"].second;
    out.report.push_back({"sim.sys_s", plain.cost.sys, "s",
                          "host, kernel time of the untraced pass"});
    layerMetrics(m, spans, static_cast<double>(plain.apps.size()), probes,
                 &out.report);
    out.report.push_back({"apps.host_kernel_s", kernel, "s",
                          "host, inside the apps::run* kernels"});
    out.report.push_back({"apps.host_harness_s",
                          hostSummary["runProgram"].second - kernel, "s",
                          "host, runProgram minus kernel"});
    for (const char *name : {"svc.get_mean_us", "svc.put_mean_us",
                             "svc.get_p99_us", "svc.put_p99_us"})
        out.report.push_back({name, 0.0, "us", "n/a on splash16"});
    out.report.push_back({"svc.backlog_peak", 0.0, "count",
                          "n/a on splash16"});
    traceSummary(spans, host, plain.cost, traced.cost, dropped, &out);
    for (const char *name : {"virt_mean_us", "virt_p50_us", "virt_p99_us",
                             "virt_p999_us"})
        out.report.push_back({name, 0.0, "us", "n/a on splash16"});
    out.report.push_back({"virt_par_ms", parallelGeoMeanMs(plain), "ms",
                          "virtual, geometric mean over 8 apps"});
    out.digest = hex(plain.digest);
    return out;
}

// ---------------------------------------------------------------- main

bool
parseArgs(int argc, char **argv, Options *o)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o->workload = v;
            haveWorkload = v == "kv-read" || v == "kv-write" ||
                           v == "splash16";
        } else if (a == "--seed") {
            o->seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = !v.empty() && *end == '\0' && v[0] != '-';
        } else if (a == "--seconds") {
            o->seconds = std::strtod(v.c_str(), &end);
            haveSeconds = !v.empty() && *end == '\0' && o->seconds > 0 &&
                          o->seconds <= 600;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            o->trace = v == "1";
            haveTrace = true;
        } else if (a == "--requests") {
            o->requests = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-' ||
                o->requests == 0)
                return false;
        } else {
            return false;
        }
    }
    return haveWorkload && haveSeed && haveSeconds && haveTrace;
}

void
printHuman(const Options &o, const Outcome &out)
{
    std::printf("# twoclock %s seed=%llu trace=%d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
    auto line = [](const Metric &m) {
        std::printf("%-30s %-16.10g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    };
    for (const Metric &m : out.report)
        line(m);
    for (const Metric &m : out.extra)
        line(m);
    std::printf("%-30s %s\n", "digest", out.digest.c_str());
    std::printf("%-30s %-16.10g %-6s %llu of %llu ops failed\n",
                "fail_frac",
                ratio(static_cast<double>(out.failed),
                      static_cast<double>(out.attempted)),
                "ratio", static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const std::string &p : out.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
}

std::string
resultJson(const Outcome &out)
{
    util::Json ms = util::Json::object();
    for (const Metric &m : out.report) {
        util::Json v = util::Json::object();
        v.set("value", std::isfinite(m.value) ? m.value : 0.0);
        v.set("unit", m.unit);
        ms.set(m.name, std::move(v));
    }
    util::Json doc = util::Json::object();
    doc.set("correct", out.correct && out.failed == 0);
    doc.set("attempted", out.attempted);
    doc.set("failed", out.failed);
    doc.set("metrics", std::move(ms));
    return doc.dump();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, &o)) {
        std::fprintf(stderr,
                     "usage: twoclock --workload kv-read|kv-write|splash16 "
                     "--seed N --seconds S --trace 0|1 [--requests N]\n");
        return 2;
    }
    // Every run uses the serial engine: RunOptions' default engine
    // reads these switches, so clear them.
    unsetenv("CABLES_ENGINE_THREADS");
    unsetenv("CABLES_ENGINE_LOOKAHEAD");

    bool kv = o.workload != "splash16";
    Outcome out = o.trace ? (kv ? kvTraced(o) : splashTraced(o))
                          : (kv ? kvTimed(o) : splashTimed(o));
    printHuman(o, out);
    std::printf("%s\n", resultJson(out).c_str());
    std::fflush(stdout);
    return out.correct && out.failed == 0 ? 0 : 1;
}
