/**
 * @file
 * The benchmark's own tests: the forwarding stream is transparent,
 * the self-time arithmetic is right, and a workload repeats exactly.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */

#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "core/system.hh"
#include "tracer.hh"
#include "workload/soak.hh"
#include "workloads.hh"

using namespace hypersio;
using namespace perfbench;

namespace
{

Span
interval(const char *name, int parent, int64_t start, int64_t end)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

workload::SoakConfig
smallSoak()
{
    workload::SoakConfig cfg;
    cfg.churn.population = 96;
    cfg.churn.slots = 16;
    cfg.churn.minBudget = 24;
    cfg.churn.maxBudget = 64;
    cfg.churn.tailMin = 128;
    cfg.churn.tailMax = 256;
    cfg.churn.seed = 7;
    cfg.stormPeriod = 1500;
    cfg.stormPackets = 200;
    cfg.stormTenants = 4;
    return cfg;
}

struct StreamRun
{
    core::RunResults results;
    std::string stats;
    std::vector<core::StreamRetirement> retirements;
};

StreamRun
runSoak(Tracer *tracer)
{
    core::System system(core::SystemConfig::hypertrio());
    auto soak = std::make_unique<workload::SoakStream>(smallSoak());
    std::unique_ptr<trace::PacketStream> stream = std::move(soak);
    TracedStream *traced = nullptr;
    if (tracer) {
        const int run = tracer->open("core.run", 0, -1);
        Span agg;
        agg.name = "workload.stream";
        agg.parent = run;
        agg.aggregate = true;
        const int agg_id = tracer->add(agg);
        auto wrapped = std::make_unique<TracedStream>(
            std::move(stream), *tracer, run, agg_id);
        traced = wrapped.get();
        stream = std::move(wrapped);
    }
    core::StreamRunOptions opts;
    opts.snapshotEveryPackets = 500;
    opts.onSnapshot = [](const core::System &, uint64_t) {};
    StreamRun out;
    out.results = system.runStream(*stream, opts);
    if (traced)
        traced->finish();
    std::ostringstream os;
    system.dumpStatsJson(os, 0);
    out.stats = os.str();
    out.retirements = system.streamRetirements();
    return out;
}

Sizing
smallSizing()
{
    Sizing s;
    s.tenants = 16;
    s.scale = 0.01;
    s.churnTenants = 240;
    s.churnActive = 32;
    s.shards = 2;
    s.jobs = 2;
    return s;
}

void
expectSameSimulation(const WorkloadOutput &a, const WorkloadOutput &b)
{
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i) {
        EXPECT_EQ(a.ops[i].name, b.ops[i].name);
        EXPECT_EQ(a.ops[i].results, b.ops[i].results) << a.ops[i].name;
        EXPECT_EQ(a.ops[i].statsDigest, b.ops[i].statsDigest)
            << a.ops[i].name;
        EXPECT_TRUE(a.ops[i].errors.empty()) << a.ops[i].name;
    }
    EXPECT_EQ(a.mergeChecksum, b.mergeChecksum);
    EXPECT_EQ(a.counts.executed, b.counts.executed);
    EXPECT_EQ(a.counts.fused, b.counts.fused);
    EXPECT_EQ(a.counts.evictions, b.counts.evictions);
}

} // namespace

TEST(SelfTime, HandBuiltTree)
{
    std::vector<Span> spans;
    spans.push_back(interval("root", -1, 0, 1000));      // 0
    spans.push_back(interval("a", 0, 100, 300));         // 1
    spans.push_back(interval("b", 0, 250, 400));         // 2 overlaps a
    spans.push_back(interval("c", 0, 900, 1200));        // 3 clipped
    spans.push_back(interval("a.child", 1, 120, 180));   // 4 grandchild
    Span agg;
    agg.name = "stream";
    agg.parent = 0;
    agg.aggregate = true;
    agg.startNs = 0;
    agg.endNs = 1000;
    agg.busyNs = 50;
    spans.push_back(agg);                                // 5
    spans.push_back(interval("in.agg", 5, 10, 20));      // 6

    const std::vector<int64_t> self = selfTimes(spans);
    // root: 1000 - union{[100,400), [900,1000)} - 50 aggregate busy.
    EXPECT_EQ(self[0], 1000 - 300 - 100 - 50);
    EXPECT_EQ(self[1], 200 - 60); // a minus its own child only
    EXPECT_EQ(self[2], 150);
    EXPECT_EQ(self[3], 300);
    EXPECT_EQ(self[4], 60);
    EXPECT_EQ(self[5], 50 - 10); // aggregate: busy minus children
    EXPECT_EQ(self[6], 10);
}

TEST(SelfTime, NeverNegative)
{
    std::vector<Span> spans;
    spans.push_back(interval("p", -1, 0, 10));
    Span agg;
    agg.name = "s";
    agg.parent = 0;
    agg.aggregate = true;
    agg.busyNs = 25;
    spans.push_back(agg);
    EXPECT_EQ(selfTimes(spans)[0], 0);
}

TEST(SelfTime, LayerSums)
{
    std::vector<Span> spans;
    spans.push_back(interval("core.fleet_run", -1, 0, 100));
    spans.push_back(interval("core.run", 0, 0, 100));
    spans.push_back(interval("core.run", 0, 0, 50));
    spans.push_back(interval("stats.snapshot", 1, 10, 30));
    const LayerTimes t = layerTimes(spans, true);
    EXPECT_DOUBLE_EQ(t.runSelfS, (80 + 50) * 1e-9);
    EXPECT_DOUBLE_EQ(t.runSpanS, 150 * 1e-9);
    EXPECT_DOUBLE_EQ(t.snapshotS, 20 * 1e-9);
    EXPECT_DOUBLE_EQ(t.shardImbalance, 100.0 / 75.0);
    EXPECT_DOUBLE_EQ(layerTimes(spans, false).shardImbalance, 1.0);
}

TEST(TracedStream, LeavesResultsAndStatsUnchanged)
{
    const StreamRun plain = runSoak(nullptr);
    Tracer tracer;
    const StreamRun traced = runSoak(&tracer);

    EXPECT_GT(plain.results.packetsProcessed, 0u);
    EXPECT_FALSE(plain.retirements.empty());
    EXPECT_EQ(plain.results, traced.results);
    EXPECT_EQ(plain.stats, traced.stats);
    EXPECT_EQ(plain.retirements, traced.retirements);

    // The stream span was bounded and charged.
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_LT(spans[0].startNs, spans[0].endNs);
    EXPECT_GT(spans[1].busyNs, 0);
    EXPECT_LE(spans[1].busyNs, spans[0].busy());
}

TEST(Workloads, ChurnTracedEqualsUntraced)
{
    const WorkloadOutput plain =
        runWorkload("churn-soak", 11, smallSizing(), nullptr);
    Tracer tracer;
    const WorkloadOutput traced =
        runWorkload("churn-soak", 11, smallSizing(), &tracer);
    expectSameSimulation(plain, traced);
    EXPECT_NE(plain.mergeChecksum, 0u);
#ifdef HYPERSIO_CHECKED
    // Each shard ran under its own collecting oracle.
    EXPECT_TRUE(plain.oracleOn);
#endif
    EXPECT_EQ(plain.counts.oracleViolations, 0u);
    const LayerTimes t = layerTimes(tracer.spans(), true);
    EXPECT_GT(t.streamS, 0.0);
    EXPECT_GT(t.runSelfS, 0.0);
    EXPECT_GE(t.shardImbalance, 1.0);
}

TEST(Workloads, SameSeedRepeatsExactly)
{
    for (const char *name :
         {"paper-base-1024", "paper-hypertrio-1024", "churn-soak"}) {
        SCOPED_TRACE(name);
        const WorkloadOutput a =
            runWorkload(name, 42, smallSizing(), nullptr);
        const WorkloadOutput b =
            runWorkload(name, 42, smallSizing(), nullptr);
        EXPECT_FALSE(a.ops.empty());
        expectSameSimulation(a, b);
    }
}

TEST(Workloads, SeedChangesInputs)
{
    const WorkloadOutput a =
        runWorkload("paper-hypertrio-1024", 1, smallSizing(), nullptr);
    const WorkloadOutput b =
        runWorkload("paper-hypertrio-1024", 2, smallSizing(), nullptr);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    EXPECT_NE(a.ops[1].statsDigest, b.ops[1].statsDigest);
}
