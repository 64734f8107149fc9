/**
 * @file
 * Host-cost probe loops: short timed loops that call one lower layer's
 * public API directly, so a per-layer op count from a workload can be
 * turned into that layer's host cost.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <vector>

namespace perfbench {

/** Host cost of one operation of one layer. */
struct Probe
{
    std::string name; ///< per-layer metric name
    std::string unit; ///< "ns" or "us"
    double value = 0; ///< median cost over the probe's timed chunks
    bool ok = true;   ///< the loop did the work it claims to time
};

/**
 * Run every probe, giving each an equal share of @p budget seconds of
 * host time. A probe repeats a fixed-size chunk of work (at least
 * three times) until its share is spent and reports the median
 * per-operation cost of its chunks.
 */
std::vector<Probe> runProbes(double budget);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
