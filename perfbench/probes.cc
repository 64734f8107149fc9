#include "probes.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "cables/runtime.hh"
#include "cables/shared.hh"
#include "net/network.hh"
#include "sim/engine.hh"
#include "vmmc/vmmc.hh"

namespace perfbench {

using namespace cables;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps probe results observable so no loop is optimised away.
volatile int64_t g_sink;

/** Host seconds spent on @p ops operations of one chunk. */
struct Chunk
{
    double sec = 0;
    uint64_t ops = 0;
};

/** See runProbes(): median cost of @p chunk in units of @p unit s. */
double
medianCost(double budget, double unit, const std::function<Chunk()> &chunk)
{
    std::vector<double> costs;
    auto t0 = Clock::now();
    while (costs.size() < 3 || since(t0) < budget) {
        Chunk c = chunk();
        costs.push_back(c.sec / static_cast<double>(c.ops) / unit);
    }
    std::sort(costs.begin(), costs.end());
    return costs[costs.size() / 2];
}

/** Two fibers that advance and sync in lockstep: one switch per step. */
Chunk
switchChunk()
{
    sim::Engine e;
    constexpr int kSteps = 50000;
    for (int t = 0; t < 2; ++t) {
        e.spawn("probe", [&e]() {
            for (int i = 0; i < kSteps; ++i) {
                e.advance(100);
                e.sync();
            }
        }, t); // staggered, so every sync yields to the other fiber
    }
    auto t0 = Clock::now();
    e.run();
    return {since(t0), e.switches()};
}

/** SAN timing model: one-way transfers between rotating node pairs. */
Chunk
transferChunk()
{
    net::Network net(4, net::NetParams{});
    constexpr uint64_t kMsgs = 1 << 22;
    sim::Tick t = 0;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < kMsgs; ++i) {
        t = net.transfer(static_cast<net::NodeId>(i & 3),
                         static_cast<net::NodeId>((i + 1) & 3), 64, t);
    }
    double sec = since(t0);
    g_sink = t;
    return {sec, kMsgs};
}

/** Blocking 4 KByte VMMC fetches issued from one fiber. */
Chunk
fetchChunk()
{
    sim::Engine e;
    net::Network net(2, net::NetParams{});
    vmmc::Vmmc comm(e, net, vmmc::VmmcParams{});
    constexpr int kFetches = 500000;
    e.spawn("probe", [&comm]() {
        for (int i = 0; i < kFetches; ++i)
            comm.fetch(1, 0, 4096);
    }, 0);
    auto t0 = Clock::now();
    e.run();
    return {since(t0), kFetches};
}

/**
 * GArray reads on node 1 of pages homed on the master. In every round
 * the master rewrites all pages between two barriers, which invalidates
 * node 1's copies, so each first read of a page faults and fetches it;
 * the reads after it hit. Round 0 (pages never fetched) is not timed.
 */
struct FaultHit
{
    Chunk fault, hit;
    bool ok = true; ///< every first read faulted and no later read did
};

FaultHit
faultHitChunk()
{
    cs::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.sharedBytes = 16 << 20;
    cs::Runtime rt(cfg);
    constexpr size_t kPages = 256, kRounds = 9, kHitReps = 16;
    constexpr size_t kWords = svm::pageSize / sizeof(int64_t);
    FaultHit r;
    rt.run([&]() {
        auto arr = cs::GArray<int64_t>::alloc(rt, kPages * kWords);
        arr.span(0, kPages * kWords, true); // first touch: master homes
        int bar = rt.barrierCreate();
        int reader = rt.threadCreateOn(1, [&]() {
            const svm::Protocol &proto = rt.protocol();
            int64_t s = 0;
            for (size_t round = 0; round < kRounds; ++round) {
                uint64_t before = proto.nodeStats(1).readFaults;
                auto t0 = Clock::now();
                for (size_t p = 0; p < kPages; ++p)
                    s += arr.read(p * kWords);
                double faultSec = since(t0);
                uint64_t faults = proto.nodeStats(1).readFaults - before;
                auto t1 = Clock::now();
                for (size_t k = 1; k <= kHitReps; ++k) {
                    for (size_t p = 0; p < kPages; ++p)
                        s += arr.read(p * kWords + k);
                }
                double hitSec = since(t1);
                r.ok = r.ok && faults == kPages &&
                       proto.nodeStats(1).readFaults - before == faults;
                if (round > 0) {
                    r.fault.sec += faultSec;
                    r.fault.ops += kPages;
                    r.hit.sec += hitSec;
                    r.hit.ops += kPages * kHitReps;
                }
                rt.barrier(bar, 2); // reads done
                rt.barrier(bar, 2); // master rewrote every page
            }
            g_sink = s;
        });
        for (size_t round = 0; round < kRounds; ++round) {
            rt.barrier(bar, 2);
            for (size_t p = 0; p < kPages; ++p)
                arr.write(p * kWords, static_cast<int64_t>(round));
            rt.barrier(bar, 2);
        }
        rt.join(reader);
    });
    return r;
}

/** Uncontended mutex lock + unlock pairs on the master. */
Chunk
lockChunk()
{
    cs::ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.sharedBytes = 8 << 20;
    cs::Runtime rt(cfg);
    constexpr int kPairs = 200000;
    double sec = 0;
    rt.run([&]() {
        int m = rt.mutexCreate();
        rt.mutexLock(m); // first use registers the mutex in the ACB
        rt.mutexUnlock(m);
        auto t0 = Clock::now();
        for (int i = 0; i < kPairs; ++i) {
            rt.mutexLock(m);
            rt.mutexUnlock(m);
        }
        sec = since(t0);
    });
    return {sec, kPairs};
}

/** Pooled 192-byte malloc + free pairs on node 1. */
Chunk
allocChunk(bool *ok)
{
    cs::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.sharedBytes = 16 << 20;
    cs::Runtime rt(cfg);
    constexpr int kPairs = 200000;
    double sec = 0;
    rt.run([&]() {
        int t = rt.threadCreateOn(1, [&]() {
            rt.free(rt.malloc(192)); // refills the size-class pool
            auto t0 = Clock::now();
            for (int i = 0; i < kPairs; ++i)
                rt.free(rt.malloc(192));
            sec = since(t0);
        });
        rt.join(t);
    });
    auto pooled = rt.metricsSnapshot().counters["mem.pool_allocs"];
    *ok = *ok && pooled == kPairs + 1;
    return {sec, kPairs};
}

/** Rounds of one 8-thread barrier spread over 4 nodes. */
Chunk
barrierChunk(bool *ok)
{
    cs::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.sharedBytes = 8 << 20;
    cs::Runtime rt(cfg);
    constexpr int kThreads = 8, kRounds = 1000;
    double sec = 0;
    rt.run([&]() {
        int b = rt.barrierCreate();
        std::vector<int> tids;
        for (int i = 1; i < kThreads; ++i) {
            tids.push_back(rt.threadCreate([&]() {
                for (int k = 0; k < kRounds; ++k)
                    rt.barrier(b, kThreads);
            }));
        }
        rt.barrier(b, kThreads); // every thread has started
        *ok = *ok && rt.attachedNodes() == 4;
        auto t0 = Clock::now();
        for (int k = 1; k < kRounds; ++k)
            rt.barrier(b, kThreads);
        sec = since(t0);
        for (int t : tids)
            rt.join(t);
    });
    return {sec, kRounds - 1};
}

} // namespace

std::vector<Probe>
runProbes(double budget)
{
    const double share = budget / 7.0;
    constexpr double ns = 1e-9, us = 1e-6;
    std::vector<Probe> out;

    out.push_back({"sim.host_ns_per_switch", "ns",
                   medianCost(share, ns, switchChunk)});
    out.push_back({"net.host_ns_per_msg", "ns",
                   medianCost(share, ns, transferChunk)});
    out.push_back({"vmmc.host_ns_per_fetch", "ns",
                   medianCost(share, ns, fetchChunk)});

    // One chunk times both reads; each cost gets its own median.
    std::vector<double> fault, hit;
    bool faultOk = true;
    auto t0 = Clock::now();
    while (fault.size() < 3 || since(t0) < share) {
        FaultHit r = faultHitChunk();
        faultOk = faultOk && r.ok;
        fault.push_back(r.fault.sec / static_cast<double>(r.fault.ops) / ns);
        hit.push_back(r.hit.sec / static_cast<double>(r.hit.ops) / ns);
    }
    std::sort(fault.begin(), fault.end());
    std::sort(hit.begin(), hit.end());
    out.push_back({"svm.host_ns_per_fault", "ns", fault[fault.size() / 2],
                   faultOk});
    out.push_back({"svm.host_ns_per_hit", "ns", hit[hit.size() / 2],
                   faultOk});

    out.push_back({"cables.host_ns_per_lock", "ns",
                   medianCost(share, ns, lockChunk)});
    bool allocOk = true;
    out.push_back({"cables.host_ns_per_alloc", "ns",
                   medianCost(share, ns, [&]() {
                       return allocChunk(&allocOk);
                   }),
                   allocOk});
    bool barrierOk = true;
    out.push_back({"cables.host_us_per_barrier", "us",
                   medianCost(share, us, [&]() {
                       return barrierChunk(&barrierOk);
                   }),
                   barrierOk});
    return out;
}

} // namespace perfbench
