#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/config.hh"
#include "core/multi_system.hh"
#include "core/system.hh"
#include "oracle/shadow.hh"
#include "stats/snapshot.hh"
#include "stats/stats.hh"
#include "trace/constructor.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/benchmarks.hh"
#include "workload/soak.hh"

using namespace hypersio;

namespace perfbench
{

namespace
{

/** soak_bench's default episode and snapshot cadence. */
constexpr uint64_t SnapshotEveryPackets = 20000;
constexpr uint64_t StormPeriod = 8192;
constexpr uint64_t StormPackets = 512;
constexpr unsigned StormTenants = 8;

#ifdef HYPERSIO_CHECKED
/** The oracle scope of the soak shard this thread is running. */
thread_local std::optional<oracle::ShadowScope> workerShadow;
#endif

/** The sweep points of both paper workloads. */
constexpr std::pair<workload::Benchmark, const char *> SweepPoints[] = {
    {workload::Benchmark::Iperf3, "RR1"},
    {workload::Benchmark::Iperf3, "RAND1"},
    {workload::Benchmark::Websearch, "RR1"},
    {workload::Benchmark::Websearch, "RAND1"},
};

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Runs `fn` inside a span (when tracing); adds its host seconds
 *  to `acc`. */
template <typename Fn>
void
timed(Tracer *tracer, const char *name, uint32_t op, int parent,
      double &acc, Fn &&fn)
{
    const ScopedSpan span(tracer, name, op, parent);
    const auto start = std::chrono::steady_clock::now();
    fn();
    acc += std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
               .count();
}

/** Flattens a stat tree below its root into dotted paths. */
void
flatten(const stats::StatGroup &group, const std::string &prefix,
        std::map<std::string, double> &values,
        const stats::Histogram *&latency)
{
    group.forEachStat([&](const stats::StatBase &stat) {
        const std::string path = prefix + stat.name();
        values[path] = stat.value();
        if (path == "device.packet_latency_ns")
            latency = dynamic_cast<const stats::Histogram *>(&stat);
    });
    group.forEachChild([&](const stats::StatGroup &child) {
        flatten(child, prefix + child.name() + ".", values, latency);
    });
}

/** Adds one finished system's simulated counts to `counts`. */
void
addCounts(const core::System &system, const core::RunResults &r,
          Counts &counts)
{
    std::map<std::string, double> v;
    const stats::Histogram *latency = nullptr;
    flatten(system.statsRoot(), "", v, latency);
    auto count = [&](const char *path) {
        const auto it = v.find(path);
        return it == v.end() ? uint64_t{0}
                             : static_cast<uint64_t>(it->second);
    };
    counts.processed += r.packetsProcessed;
    counts.dropped += r.packetsDropped;
    counts.executed += system.eventQueue().executed();
    counts.fused += system.eventQueue().fusedHops();
    counts.translations += count("device.translations");
    counts.devtlbHits += count("device.devtlb_hits");
    counts.pbHits += count("device.pb_hits");
    counts.prefetchFills += count("device.prefetch_fills");
    counts.iommuRequests += count("iommu.requests");
    counts.iotlbHits += count("iommu.iotlb_hits");
    counts.l2Lookups += count("iommu.l2_cache.lookups");
    counts.l2Hits += count("iommu.l2_cache.hits");
    counts.l3Lookups += count("iommu.l3_cache.lookups");
    counts.l3Hits += count("iommu.l3_cache.hits");
    counts.walks += count("iommu.walks");
    counts.memReads += count("memory.reads");
    for (const auto &[path, value] : v) {
        auto ends_with = [&](const std::string &suffix) {
            return path.size() > suffix.size() &&
                   path.compare(path.size() - suffix.size(),
                                suffix.size(), suffix) == 0;
        };
        if (ends_with(".evictions"))
            counts.evictions += static_cast<uint64_t>(value);
        else if (ends_with(".invalidations"))
            counts.invalidations += static_cast<uint64_t>(value);
    }
    if (latency)
        counts.latency.merge(*latency);
}

uint64_t
statsDigest(const core::System &system, Tracer *tracer, uint32_t op,
            int parent, double &acc)
{
    std::string bytes;
    timed(tracer, "stats.dump", op, parent, acc, [&] {
        std::ostringstream os;
        system.dumpStatsJson(os, 0);
        bytes = os.str();
    });
    return fnv1a(bytes);
}

void
runSweep(const core::SystemConfig &base_config, uint64_t seed,
         const Sizing &sizing, Tracer *tracer, WorkloadOutput &out)
{
    uint32_t op = 0;
    for (const auto &[bench, il_name] : SweepPoints) {
        OpResult result;
        result.name = base_config.name + "/" +
                      workload::benchmarkName(bench) + "/" + il_name;
        const ScopedSpan point(tracer, "point", op, -1);

        // Set-up: the inputs and the system, as ExperimentRunner
        // builds them for a sweep point.
        trace::HyperTrace trace;
        {
            std::vector<trace::TenantLog> logs;
            timed(tracer, "workload.generate", op, point.id(),
                  out.host.generateS, [&] {
                      logs = workload::generateLogs(
                          bench, sizing.tenants, seed, sizing.scale);
                  });
            timed(tracer, "trace.construct", op, point.id(),
                  out.host.constructS, [&] {
                      trace = trace::constructTrace(
                          logs, trace::parseInterleaving(il_name));
                      trace.seed = seed;
                      std::vector<trace::TenantLog>().swap(logs);
                  });
        }
        core::SystemConfig config = base_config;
        config.seed = seed;
        std::unique_ptr<core::System> system;
        timed(tracer, "core.setup", op, point.id(), out.host.systemS,
              [&] { system = std::make_unique<core::System>(config); });

        // The run, under a collecting oracle in place of the
        // fail-fast one System::run installs by default: the same
        // checks, but a violation is counted instead of aborting.
        uint64_t violations = 0;
        timed(tracer, "core.run", op, point.id(), out.host.runS, [&] {
#ifdef HYPERSIO_CHECKED
            std::unique_ptr<oracle::ShadowChecker> checker;
            std::optional<oracle::ShadowScope> scope;
            if (oracle::shadowAutoCheckEnabled()) {
                checker = std::make_unique<oracle::ShadowChecker>(
                    core::toShadowConfig(config), &system->tables(),
                    /*fail_fast=*/false);
                scope.emplace(*checker);
                out.oracleOn = true;
            }
#endif
            result.results = system->run(trace);
#ifdef HYPERSIO_CHECKED
            if (checker)
                violations = checker->violationCount();
#endif
        });
        result.statsDigest = statsDigest(*system, tracer, op,
                                         point.id(), out.host.dumpS);

        result.expectedPackets = trace.packets.size();
        if (result.results.packetsProcessed != result.expectedPackets) {
            result.errors.push_back(
                "processed " +
                std::to_string(result.results.packetsProcessed) +
                " of " + std::to_string(result.expectedPackets) +
                " trace packets");
        }
        if (violations) {
            result.errors.push_back(std::to_string(violations) +
                                    " oracle violations");
        }
        out.counts.oracleViolations += violations;
        addCounts(*system, result.results, out.counts);
        out.ops.push_back(std::move(result));
        ++op;
    }
}

/** Shard `shard`'s soak workload, as soak_bench slices it. */
workload::SoakConfig
shardSoak(uint64_t seed, const Sizing &sizing, unsigned shard)
{
    workload::SoakConfig cfg;
    cfg.churn.bench = workload::Benchmark::Iperf3;
    const uint64_t base = sizing.churnTenants / sizing.shards;
    const uint64_t extra = shard < sizing.churnTenants % sizing.shards;
    cfg.churn.population = static_cast<unsigned>(base + extra);
    cfg.churn.slots = sizing.churnActive / sizing.shards;
    cfg.churn.seed = hashCombine(seed, 0x50acULL + shard);
    cfg.stormPeriod = StormPeriod;
    cfg.stormPackets = StormPackets;
    cfg.stormTenants = StormTenants;
    return cfg;
}

void
runChurn(uint64_t seed, const Sizing &sizing, Tracer *tracer,
         WorkloadOutput &out)
{
    if (sizing.shards == 0 || sizing.churnActive < sizing.shards ||
        sizing.churnTenants < sizing.shards)
        fatal("churn-soak needs at least one tenant and one SID slot "
              "per shard");
    const unsigned shards = sizing.shards;
    const uint32_t fleet_op = shards; // spans of the whole fleet

    // Set-up: the lazy input streams and the shard systems.
    std::vector<std::unique_ptr<workload::SoakStream>> owned(shards);
    std::vector<const workload::SoakStream *> soaks(shards);
    std::vector<workload::SoakConfig> configs(shards);
    for (unsigned s = 0; s < shards; ++s) {
        configs[s] = shardSoak(seed, sizing, s);
        timed(tracer, "workload.generate", s, -1, out.host.generateS,
              [&] {
                  owned[s] =
                      std::make_unique<workload::SoakStream>(configs[s]);
              });
        soaks[s] = owned[s].get();
    }
    std::unique_ptr<core::ShardedMultiSystem> sharded;
    timed(tracer, "core.setup", fleet_op, -1, out.host.systemS, [&] {
        sharded = std::make_unique<core::ShardedMultiSystem>(
            core::SystemConfig::hypertrio(), shards, sizing.jobs);
    });

    // Per-shard spans: each shard's run is bounded by its stream's
    // first pull and exhaustion (TracedStream), with the stream's
    // own time and every snapshot hook as its children.
    const int fleet =
        tracer ? tracer->open("core.fleet_run", fleet_op, -1) : -1;
    std::vector<int> run_span(shards, -1), stream_span(shards, -1);
    std::vector<TracedStream *> traced(shards, nullptr);
    if (tracer) {
        for (unsigned s = 0; s < shards; ++s) {
            Span run;
            run.name = "core.run";
            run.op = s;
            run.parent = fleet;
            run_span[s] = tracer->add(run);
            Span stream;
            stream.name = "workload.stream";
            stream.op = s;
            stream.parent = run_span[s];
            stream.aggregate = true;
            stream_span[s] = tracer->add(stream);
        }
    }
    auto make_stream = [&](unsigned s)
        -> std::unique_ptr<trace::PacketStream> {
        if (!tracer)
            return std::move(owned[s]);
        auto wrapped = std::make_unique<TracedStream>(
            std::move(owned[s]), *tracer, run_span[s], stream_span[s]);
        traced[s] = wrapped.get();
        return wrapped;
    };

#ifdef HYPERSIO_CHECKED
    // A collecting oracle per shard in place of the fail-fast one
    // runStream installs by default, as in runSweep. It is installed
    // on the worker thread that runs the shard.
    std::vector<std::unique_ptr<oracle::ShadowChecker>> checkers(shards);
    out.oracleOn = oracle::shadowAutoCheckEnabled();
#endif

    std::vector<std::unique_ptr<stats::Snapshotter>> snappers(shards);
    std::vector<uint64_t> snapshot_bytes(shards, 0);
    auto make_options = [&](unsigned s) {
        core::StreamRunOptions opts;
#ifdef HYPERSIO_CHECKED
        if (out.oracleOn) {
            opts.onRunStart = [&, s](const core::System &system) {
                checkers[s] = std::make_unique<oracle::ShadowChecker>(
                    core::toShadowConfig(system.config()),
                    &system.tables(), /*fail_fast=*/false);
                workerShadow.reset();
                workerShadow.emplace(*checkers[s]);
            };
        }
#endif
        opts.snapshotEveryPackets = SnapshotEveryPackets;
        opts.onSnapshot = [&, s](const core::System &system, uint64_t) {
            const int64_t start = tracer ? tracer->now() : 0;
            if (!snappers[s]) {
                snappers[s] = std::make_unique<stats::Snapshotter>(
                    system.statsRoot());
            }
            stats::Snapshot snap =
                snappers[s]->capture(system.eventQueue().now());
            stats::Snapshotter::sampleProcessRss(snap);
            snapshot_bytes[s] +=
                stats::snapshotToJsonLine(snap, s, seed).size();
            if (tracer) {
                Span span;
                span.name = "stats.snapshot";
                span.op = s;
                span.parent = run_span[s];
                span.startNs = start;
                span.endNs = tracer->now();
                tracer->add(std::move(span));
            }
        };
        return opts;
    };

    core::ShardedRunResults results;
    {
        const auto start = std::chrono::steady_clock::now();
        results = sharded->run(make_stream, make_options);
        out.host.runS += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    }
#ifdef HYPERSIO_CHECKED
    // Worker threads dropped their scopes on exit; a single worker
    // is this thread.
    workerShadow.reset();
#endif
    for (TracedStream *t : traced) {
        if (t)
            t->finish();
    }
    if (tracer)
        tracer->close(fleet);
    out.mergeChecksum = results.mergeChecksum;

    for (unsigned s = 0; s < shards; ++s) {
        const core::System &system = sharded->shard(s);
        OpResult result;
        result.name = "hypertrio/soak/shard" + std::to_string(s);
        result.results = results.perShard[s];
        result.statsDigest =
            statsDigest(system, tracer, s, -1, out.host.dumpS);
        result.expectedPackets = soaks[s]->produced();

        auto check = [&](bool ok, const std::string &what) {
            if (!ok)
                result.errors.push_back(what);
        };
        const uint64_t attached = soaks[s]->attaches();
        const uint64_t retired = system.streamRetirements().size();
        const uint64_t population =
            configs[s].churn.population +
            soaks[s]->episodes() * uint64_t{StormTenants};
        check(result.results.packetsProcessed == result.expectedPackets,
              "processed " +
                  std::to_string(result.results.packetsProcessed) +
                  " of " + std::to_string(result.expectedPackets) +
                  " produced packets");
        check(attached == population,
              "attached " + std::to_string(attached) + " of " +
                  std::to_string(population) + " tenants");
        check(retired == attached,
              "retired " + std::to_string(retired) + " of " +
                  std::to_string(attached) + " attached tenants");
        check(system.tables().size() == 0,
              std::to_string(system.tables().size()) +
                  " page tables still live");
        uint64_t violations = 0;
#ifdef HYPERSIO_CHECKED
        if (checkers[s])
            violations = checkers[s]->violationCount();
#endif
        check(violations == 0,
              std::to_string(violations) + " oracle violations");
        out.counts.oracleViolations += violations;
        check(snapshot_bytes[s] > 0 ||
                  result.expectedPackets < SnapshotEveryPackets,
              "snapshot hook never fired");
        addCounts(system, result.results, out.counts);
        out.ops.push_back(std::move(result));
    }
}

} // namespace

void
LatencyHistogram::merge(const stats::Histogram &h)
{
    if (h.samples() == 0)
        return;
    if (samples == 0 && bins.empty()) {
        lo = h.lo();
        hi = h.hi();
        bins.assign(h.numBins(), 0);
        min = h.min();
        max = h.max();
    }
    HYPERSIO_ASSERT(h.lo() == lo && h.hi() == hi &&
                        h.numBins() == bins.size(),
                    "latency histograms differ in binning");
    for (size_t i = 0; i < bins.size(); ++i)
        bins[i] += h.binCount(i);
    underflow += h.underflow();
    overflow += h.overflow();
    min = samples ? std::min(min, h.min()) : h.min();
    max = samples ? std::max(max, h.max()) : h.max();
    samples += h.samples();
}

double
LatencyHistogram::percentile(double p) const
{
    // stats::Histogram::percentile over the merged counts.
    if (samples == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const double rank =
        p / 100.0 * static_cast<double>(samples - 1) + 1.0;
    double cum = static_cast<double>(underflow);
    if (rank <= cum)
        return min;
    const double width = (hi - lo) / static_cast<double>(bins.size());
    for (size_t i = 0; i < bins.size(); ++i) {
        if (bins[i] == 0)
            continue;
        const double in_bin = static_cast<double>(bins[i]);
        if (rank <= cum + in_bin) {
            const double frac = (rank - cum) / in_bin;
            return std::clamp(
                lo + width * (static_cast<double>(i) + frac), min, max);
        }
        cum += in_bin;
    }
    return max;
}

WorkloadOutput
runWorkload(const std::string &name, uint64_t seed,
            const Sizing &sizing, Tracer *tracer)
{
    WorkloadOutput out;
    out.workload = name;
    out.seed = seed;
    out.sizing = sizing;
    if (name == "paper-base-1024")
        runSweep(core::SystemConfig::base(), seed, sizing, tracer, out);
    else if (name == "paper-hypertrio-1024")
        runSweep(core::SystemConfig::hypertrio(), seed, sizing, tracer,
                 out);
    else if (name == "churn-soak")
        runChurn(seed, sizing, tracer, out);
    else
        fatal("unknown workload '%s'", name.c_str());
    return out;
}

LayerTimes
layerTimes(const std::vector<Span> &spans, bool parallel)
{
    const std::vector<int64_t> self = selfTimes(spans);
    LayerTimes t;
    int64_t max_run = 0;
    int64_t sum_run = 0;
    unsigned runs = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const double s = static_cast<double>(self[i]) * 1e-9;
        const std::string &name = spans[i].name;
        if (name == "core.run") {
            t.runSelfS += s;
            const int64_t busy = spans[i].busy();
            t.runSpanS += static_cast<double>(busy) * 1e-9;
            max_run = std::max(max_run, busy);
            sum_run += busy;
            ++runs;
        } else if (name == "workload.generate") {
            t.generateS += s;
        } else if (name == "trace.construct") {
            t.constructS += s;
        } else if (name == "workload.stream") {
            t.streamS += s;
        } else if (name == "stats.snapshot") {
            t.snapshotS += s;
        } else if (name == "stats.dump") {
            t.dumpS += s;
        }
    }
    if (parallel && runs && sum_run > 0) {
        t.shardImbalance = static_cast<double>(max_run) /
                           (static_cast<double>(sum_run) / runs);
    }
    return t;
}

void
writeOutputJson(std::ostream &os, const WorkloadOutput &out,
                const LayerTimes *layers)
{
    json::Writer w(os, 0);
    auto hex = [](uint64_t v) {
        char buf[19];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(v));
        return std::string(buf);
    };
    w.beginObject();
    w.key("workload");
    w.value(out.workload);
    w.key("seed");
    w.value(out.seed);
    w.key("sizing");
    w.beginObject();
    w.key("tenants");
    w.value(out.sizing.tenants);
    w.key("scale");
    w.value(out.sizing.scale);
    w.key("churn_tenants");
    w.value(out.sizing.churnTenants);
    w.key("churn_active");
    w.value(out.sizing.churnActive);
    w.key("shards");
    w.value(out.sizing.shards);
    w.endObject();
    w.key("oracle");
    w.value(out.oracleOn ? "collecting" : "off");

    w.key("ops");
    w.beginArray();
    for (const OpResult &op : out.ops) {
        w.beginObject();
        w.key("name");
        w.value(op.name);
        w.key("results");
        core::writeRunResultsJson(w, op.results);
        w.key("stats_digest");
        w.value(hex(op.statsDigest));
        w.key("expected_packets");
        w.value(op.expectedPackets);
        w.key("errors");
        w.beginArray();
        for (const std::string &e : op.errors)
            w.value(e);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("merge_checksum");
    w.value(out.mergeChecksum);

    const Counts &c = out.counts;
    w.key("counts");
    w.beginObject();
    for (const auto &[key, value] :
         std::initializer_list<std::pair<const char *, uint64_t>>{
             {"processed", c.processed},
             {"dropped", c.dropped},
             {"executed", c.executed},
             {"fused", c.fused},
             {"translations", c.translations},
             {"devtlb_hits", c.devtlbHits},
             {"pb_hits", c.pbHits},
             {"prefetch_fills", c.prefetchFills},
             {"iommu_requests", c.iommuRequests},
             {"iotlb_hits", c.iotlbHits},
             {"l2_lookups", c.l2Lookups},
             {"l2_hits", c.l2Hits},
             {"l3_lookups", c.l3Lookups},
             {"l3_hits", c.l3Hits},
             {"walks", c.walks},
             {"mem_reads", c.memReads},
             {"evictions", c.evictions},
             {"invalidations", c.invalidations},
             {"oracle_violations", c.oracleViolations}}) {
        w.key(key);
        w.value(value);
    }
    w.key("latency_p50_ns");
    w.value(c.latency.percentile(50.0));
    w.key("latency_p99_ns");
    w.value(c.latency.percentile(99.0));
    w.endObject();

    const HostTimes &h = out.host;
    w.key("host");
    w.beginObject();
    for (const auto &[key, value] :
         std::initializer_list<std::pair<const char *, double>>{
             {"setup_s", h.setupS()},
             {"generate_s", h.generateS},
             {"construct_s", h.constructS},
             {"system_s", h.systemS},
             {"run_s", h.runS},
             {"dump_s", h.dumpS}}) {
        w.key(key);
        w.value(value);
    }
    w.endObject();

    if (layers) {
        w.key("layers");
        w.beginObject();
        for (const auto &[key, value] :
             std::initializer_list<std::pair<const char *, double>>{
                 {"run_self_s", layers->runSelfS},
                 {"run_span_s", layers->runSpanS},
                 {"shard_imbalance", layers->shardImbalance},
                 {"generate_s", layers->generateS},
                 {"construct_s", layers->constructS},
                 {"stream_s", layers->streamS},
                 {"snapshot_s", layers->snapshotS},
                 {"dump_s", layers->dumpS}}) {
            w.key(key);
            w.value(value);
        }
        w.endObject();
    }
    w.endObject();
}

} // namespace perfbench
