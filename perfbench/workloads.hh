/**
 * @file
 * The benchmark's workloads, driven through the library's public
 * calls the way a user drives them (see hypersio/hypersio.hh):
 *
 *  - paper-base-1024 / paper-hypertrio-1024: Fig. 10 sweep points at
 *    1024 tenants (iperf3 and websearch x RR1 and RAND1), each on a
 *    fresh System built from generateLogs + constructTrace, run
 *    serially on one thread;
 *  - churn-soak: a HyperTRIO SoakStream per shard, run by a
 *    ShardedMultiSystem with tenant eviction on and a snapshot hook.
 *
 * Host time is taken around each call from outside the library; the
 * simulated results are the correctness check.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_results.hh"
#include "tracer.hh"

namespace hypersio::stats
{
class Histogram;
}

namespace perfbench
{

/** Workload sizes. The defaults are the benchmark's. */
struct Sizing
{
    unsigned tenants = 1024; ///< tenants per sweep point
    double scale = 0.01;     ///< per-tenant trace scale (generateLogs)
    uint64_t churnTenants = 8000; ///< soak virtual-tenant population
    unsigned churnActive = 512;   ///< soak SID slots over all shards
    unsigned shards = 4;
    unsigned jobs = 4; ///< soak worker threads

    bool operator==(const Sizing &) const = default;
};

/** One op: a sweep point or a soak shard. */
struct OpResult
{
    std::string name;
    hypersio::core::RunResults results;
    /** FNV-1a of the op's dumpStatsJson(indent 0) bytes. */
    uint64_t statsDigest = 0;
    /** Packets the op had to complete (trace size / produced). */
    uint64_t expectedPackets = 0;
    /** Broken output invariants; empty when the op is correct. */
    std::vector<std::string> errors;
};

/**
 * Packet accept-to-complete latency histograms of several runs
 * merged bin by bin; percentiles follow stats::Histogram's rule.
 */
struct LatencyHistogram
{
    double lo = 0.0;
    double hi = 0.0;
    std::vector<uint64_t> bins;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    uint64_t samples = 0;
    double min = 0.0;
    double max = 0.0;

    /** Adds `h`; every merged histogram must share its binning. */
    void merge(const hypersio::stats::Histogram &h);
    double percentile(double p) const;
};

/** Simulated work summed over every op (identical on any host). */
struct Counts
{
    uint64_t processed = 0;
    uint64_t dropped = 0;
    uint64_t executed = 0; ///< event-kernel dispatches
    uint64_t fused = 0;    ///< fused translation hops
    uint64_t translations = 0;
    uint64_t devtlbHits = 0;
    uint64_t pbHits = 0;
    uint64_t prefetchFills = 0;
    uint64_t iommuRequests = 0;
    uint64_t iotlbHits = 0;
    uint64_t l2Lookups = 0;
    uint64_t l2Hits = 0;
    uint64_t l3Lookups = 0;
    uint64_t l3Hits = 0;
    uint64_t walks = 0;
    uint64_t memReads = 0;
    uint64_t evictions = 0;     ///< all translation caches
    uint64_t invalidations = 0; ///< all translation caches
    uint64_t oracleViolations = 0;
    LatencyHistogram latency;
};

/** Host seconds spent in each set-up and run call, summed. */
struct HostTimes
{
    double generateS = 0.0;  ///< generateLogs / SoakStream construction
    double constructS = 0.0; ///< constructTrace
    double systemS = 0.0;    ///< System / ShardedMultiSystem construction
    double runS = 0.0;       ///< System::run / ShardedMultiSystem::run
    double dumpS = 0.0;      ///< dumpStatsJson

    /** Input generation plus system construction. */
    double setupS() const { return generateS + constructS + systemS; }
};

struct WorkloadOutput
{
    std::string workload;
    uint64_t seed = 0;
    Sizing sizing;
    std::vector<OpResult> ops;
    Counts counts;
    HostTimes host;
    /** churn-soak's retirement-merge checksum (0 for the sweeps). */
    uint64_t mergeChecksum = 0;
    /** Whether a collecting shadow oracle checked every op. */
    bool oracleOn = false;
};

/**
 * Runs workload `name` once. With a tracer, every layer call is also
 * recorded as a span; the simulated outputs must not change.
 * fatal() on an unknown name.
 */
WorkloadOutput runWorkload(const std::string &name, uint64_t seed,
                           const Sizing &sizing, Tracer *tracer);

/** Host time per layer, from a traced run's spans. */
struct LayerTimes
{
    double runSelfS = 0.0;   ///< core.run spans minus their children
    double runSpanS = 0.0;   ///< core.run spans, whole
    double shardImbalance = 1.0; ///< slowest run span / mean
    double generateS = 0.0;
    double constructS = 0.0;
    double streamS = 0.0;
    double snapshotS = 0.0;
    double dumpS = 0.0;
};

/**
 * Sums the self time of the spans per layer. The imbalance is taken
 * over the core.run spans that ran in parallel (the soak shards); a
 * serial sweep reports 1.
 */
LayerTimes layerTimes(const std::vector<Span> &spans, bool parallel);

/** Writes the output as one JSON object (no trailing newline). */
void writeOutputJson(std::ostream &os, const WorkloadOutput &out,
                     const LayerTimes *layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
