/** Integration tests for the assembled system: the paper's headline
 *  behaviours on small scaled-down traces, plus run invariants. */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/system.hh"
#include "run_digest.hh"
#include "trace/constructor.hh"
#include "workload/benchmarks.hh"

namespace hypersio::core
{
namespace
{

trace::HyperTrace
makeTrace(unsigned tenants, const char *il = "RR1",
          workload::Benchmark bench = workload::Benchmark::Iperf3,
          double scale = 0.02)
{
    auto logs = workload::generateLogs(bench, tenants, 42, scale);
    return trace::constructTrace(logs, trace::parseInterleaving(il));
}

TEST(System, EmptyTraceYieldsZeroResults)
{
    System system(SystemConfig::base());
    const RunResults r = system.run(trace::HyperTrace{});
    EXPECT_EQ(r.packetsProcessed, 0u);
    EXPECT_DOUBLE_EQ(r.achievedGbps, 0.0);
}

TEST(System, ProcessesEveryPacketExactlyOnce)
{
    const auto tr = makeTrace(4);
    System system(SystemConfig::base());
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_EQ(r.translations, tr.packets.size() * 3);
}

TEST(System, UtilizationNeverExceedsLinkRate)
{
    for (unsigned tenants : {2u, 16u, 64u}) {
        const auto tr = makeTrace(tenants);
        System system(SystemConfig::hypertrio());
        const RunResults r = system.run(tr);
        EXPECT_LE(r.utilization, 1.0 + 1e-9);
        EXPECT_GT(r.utilization, 0.0);
    }
}

TEST(System, BypassTranslationRunsAtLinkRate)
{
    const auto tr = makeTrace(8);
    System system(SystemConfig::base());
    const RunResults r = system.run(tr, /*bypass=*/true);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_EQ(r.packetsDropped, 0u);
    EXPECT_NEAR(r.utilization, 1.0, 1e-9);
}

TEST(System, BaseCollapsesInHyperTenantRegime)
{
    // The paper's central observation: the Base design cannot use
    // the link once tenants overwhelm the DevTLB.
    const RunResults low = [] {
        System s(SystemConfig::base());
        return s.run(makeTrace(2));
    }();
    const RunResults high = [] {
        System s(SystemConfig::base());
        return s.run(makeTrace(64));
    }();
    EXPECT_GT(low.utilization, 0.5);
    EXPECT_LT(high.utilization, 0.1);
}

TEST(System, HyperTrioSustainsBandwidthAtScale)
{
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(makeTrace(64));
    EXPECT_GT(r.utilization, 0.8);
}

TEST(System, HyperTrioBeatsBaseEverywhere)
{
    for (unsigned tenants : {4u, 16u, 64u, 128u}) {
        const auto tr = makeTrace(tenants);
        System base(SystemConfig::base());
        System ht(SystemConfig::hypertrio());
        const double b = base.run(tr).achievedGbps;
        const double h = ht.run(tr).achievedGbps;
        EXPECT_GE(h, b) << tenants << " tenants";
    }
}

TEST(System, MmuPrefetchIssuesAndConsumesStridedFills)
{
    // The MMU-aware DMA prefetcher end to end: descriptor-ring
    // strides train the per-(tenant, class) detectors, predicted
    // pages translate through the prefetch-tagged IOMMU path, and
    // completed fills land in the Prefetch Buffer where demand
    // lookups consume them. In checked builds the auto-installed
    // shadow verifies every issued page against the reference
    // detector.
    SystemConfig config = SystemConfig::base();
    config.name = "mmu-prefetch";
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 32;
    config.device.prefetch.pagesPerPrefetch = 2;
    const auto tr = makeTrace(16);
    System system(config);
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(system.device().prefetchesSent(), 0u);
    const cache::CacheStats *pb = system.device().prefetchBufferStats();
    ASSERT_NE(pb, nullptr);
    EXPECT_GT(pb->insertions, 0u);
    // No History Reader exists in this mode.
    EXPECT_EQ(system.historyReader(), nullptr);
}

TEST(System, SubEntrySharingRunsCleanAtScale)
{
    // Sub-entry sharing across the DevTLB and both paging caches at
    // the hyper-tenant point; the checked-build mirror enforces the
    // per-tag tenant bound and row legality throughout.
    SystemConfig config = SystemConfig::base();
    config.name = "sub-entry";
    config.device.devtlb.subEntries = 4;
    config.iommu.l2tlb.subEntries = 4;
    config.iommu.l3tlb.subEntries = 4;
    const auto tr = makeTrace(64);
    System system(config);
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.utilization, 0.0);
}

TEST(System, DropsOnlyHappenWhenPtbIsSmall)
{
    const auto tr = makeTrace(32);
    SystemConfig config = SystemConfig::base();
    config.device.ptbEntries = 1;
    System small(config);
    const RunResults r_small = small.run(tr);
    EXPECT_GT(r_small.packetsDropped, 0u);

    SystemConfig big = SystemConfig::hypertrio();
    big.device.ptbEntries = 4096;
    System large(big);
    const RunResults r_large = large.run(tr);
    EXPECT_EQ(r_large.packetsDropped, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const auto tr = makeTrace(16, "RAND1");
    System a(SystemConfig::hypertrio());
    System b(SystemConfig::hypertrio());
    const RunResults ra = a.run(tr);
    const RunResults rb = b.run(tr);
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.packetsDropped, rb.packetsDropped);
    EXPECT_DOUBLE_EQ(ra.achievedGbps, rb.achievedGbps);
}

TEST(System, OracleDevtlbRunsAndBeatsLruAtModerateScale)
{
    const auto tr = makeTrace(8);
    SystemConfig lru = SystemConfig::base();
    lru.device.devtlb.policy = cache::ReplPolicyKind::LRU;
    SystemConfig oracle = SystemConfig::base();
    oracle.device.devtlb.policy = cache::ReplPolicyKind::Oracle;
    System s_lru(lru);
    System s_oracle(oracle);
    const double g_lru = s_lru.run(tr).achievedGbps;
    const double g_oracle = s_oracle.run(tr).achievedGbps;
    EXPECT_GE(g_oracle, g_lru * 0.99);
}

TEST(System, UnmapInvalidationForcesRetranslation)
{
    // mediastream with page retirement: unmaps must not fault later
    // accesses (remap precedes reuse) and the run must complete.
    const auto tr =
        makeTrace(4, "RR1", workload::Benchmark::Mediastream, 0.1);
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.utilization, 0.5);
}

TEST(System, StatsDumpIsNonEmpty)
{
    System s(SystemConfig::hypertrio());
    s.run(makeTrace(4));
    std::ostringstream os;
    s.dumpStats(os);
    EXPECT_NE(os.str().find("system.device.packets"),
              std::string::npos);
    EXPECT_NE(os.str().find("system.iommu.requests"),
              std::string::npos);
}

TEST(System, PacketLatencyIsBoundedBelowByHitPath)
{
    System s(SystemConfig::hypertrio());
    const RunResults r = s.run(makeTrace(2));
    // Three serialized DevTLB hits = 6 ns is the floor.
    EXPECT_GE(r.avgPacketLatencyNs, 6.0);
}

/**
 * A PTB release that lands exactly on a parked arrival slot. With a
 * whole-nanosecond arrival slot and every pipeline latency a whole
 * number of nanoseconds, Base releases keep landing on slot ticks. A
 * release keyed before the slot wakes the arrival process in time for
 * that slot to admit; one keyed after it leaves the slot a drop, and
 * the next slot admits. With 1 ns slots every release orders first
 * (its last hop was scheduled more than a slot earlier). With 3 ns
 * slots a release after a 2 ns DevTLB hit orders after the slot, so
 * both orders occur (about 600 and 6200 of the 6917 wake-ups). The
 * goldens were recorded from the kernel that fired every drop slot as
 * its own event; matching them pins the wake-up order exactly.
 */
TEST(System, PtbReleaseOnASlotTickMatchesEventPerSlotGoldens)
{
    struct Golden
    {
        unsigned packetBytes; ///< 25 B = 1 ns, 75 B = 3 ns at 200 Gb/s
        const char *results;
        uint64_t statsDigest;
        uint64_t scheduledSeq;
    };
    const Golden goldens[] = {
        {25,
         "{\"config\":\"base\",\"packets_processed\":6918,"
         "\"packets_dropped\":8088453,\"translations\":20754,"
         "\"elapsed_ticks\":8097177000,"
         "\"achieved_gbps\":0.1708743676962971,"
         "\"utilization\":0.0008543718384814856,"
         "\"devtlb_hit_rate\":0.5738170954996628,"
         "\"pb_hit_rate\":0,\"iotlb_hit_rate\":0.9840587902769926,"
         "\"walks\":141,\"iommu_requests\":8845,"
         "\"avg_packet_latency_ns\":1170.4504191962994}",
         11914174222537519824ull, 8133815},
        {75,
         "{\"config\":\"base\",\"packets_processed\":6918,"
         "\"packets_dropped\":2697799,\"translations\":20754,"
         "\"elapsed_ticks\":8115957000,"
         "\"achieved_gbps\":0.5114369137244074,"
         "\"utilization\":0.0025571845686220367,"
         "\"devtlb_hit_rate\":0.5738170954996628,"
         "\"pb_hit_rate\":0,\"iotlb_hit_rate\":0.9840587902769926,"
         "\"walks\":141,\"iommu_requests\":8845,"
         "\"avg_packet_latency_ns\":1170.4504191962994}",
         11914174222537519824ull, 2743161},
    };
    const auto tr = makeTrace(16, "RAND1");
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.packetBytes);
        SystemConfig config = SystemConfig::base();
        config.link.packetBytes = g.packetBytes;
        System system(config);
        const RunResults r = system.run(tr);
        EXPECT_EQ(golden::resultsJson(r), g.results);
        EXPECT_EQ(golden::statsDigest(system), g.statsDigest);
        EXPECT_EQ(system.eventQueue().scheduledSeq(), g.scheduledSeq);
    }
}

TEST(ExperimentRunnerTest, RunProducesConsistentRow)
{
    ExperimentRunner runner(0.02, 42);
    ExperimentPoint point;
    point.label = "test";
    point.config = SystemConfig::base();
    point.bench = workload::Benchmark::Iperf3;
    point.tenants = 4;
    point.interleave = trace::parseInterleaving("RR1");
    const ExperimentRow row = runner.run(point);
    EXPECT_GT(row.results.packetsProcessed, 0u);
    EXPECT_EQ(row.point.label, "test");
}

TEST(ExperimentRunnerTest, PaperSweepIsPowersOfTwo)
{
    const auto sweep = paperTenantSweep(1024);
    ASSERT_FALSE(sweep.empty());
    EXPECT_EQ(sweep.front(), 4u);
    EXPECT_EQ(sweep.back(), 1024u);
    for (size_t i = 1; i < sweep.size(); ++i)
        EXPECT_EQ(sweep[i], sweep[i - 1] * 2);
}

} // namespace
} // namespace hypersio::core
