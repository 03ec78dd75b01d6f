/** Tests for the extension features: configuration overrides,
 *  multi-device systems, and variable packet wire sizes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "core/overrides.hh"
#include "core/system.hh"
#include "run_digest.hh"
#include "stats/stats.hh"
#include "trace/constructor.hh"
#include "trace/stream.hh"
#include "trace/trace_file.hh"
#include "workload/adversarial.hh"
#include "workload/benchmarks.hh"

namespace hypersio::core
{
namespace
{

TEST(Overrides, NumericKeys)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "link.gbps=100");
    applyOverride(config, "ptb.entries=16");
    applyOverride(config, "devtlb.entries=128");
    applyOverride(config, "pcie.oneway_ns=300");
    applyOverride(config, "iommu.paging_levels=5");
    EXPECT_DOUBLE_EQ(config.link.gbps, 100.0);
    EXPECT_EQ(config.device.ptbEntries, 16u);
    EXPECT_EQ(config.device.devtlb.entries, 128u);
    EXPECT_EQ(config.pcieOneWay, 300 * TicksPerNs);
    EXPECT_EQ(config.iommu.pagingLevels, 5u);
}

TEST(Overrides, PolicyAndBooleanKeys)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "devtlb.policy=lru");
    applyOverride(config, "prefetch.enabled=true");
    applyOverride(config, "iotlb.hashed=off");
    EXPECT_EQ(config.device.devtlb.policy,
              cache::ReplPolicyKind::LRU);
    EXPECT_TRUE(config.device.prefetch.enabled);
    EXPECT_FALSE(config.iommu.iotlb.hashIndex);
}

TEST(Overrides, WhitespaceTolerant)
{
    SystemConfig config = SystemConfig::base();
    applyOverride(config, "  seed =  99 ");
    EXPECT_EQ(config.seed, 99u);
}

TEST(Overrides, ListAppliesInOrder)
{
    SystemConfig config = SystemConfig::base();
    applyOverrides(config,
                   {"ptb.entries=8", "ptb.entries=32"});
    EXPECT_EQ(config.device.ptbEntries, 32u);
}

TEST(Overrides, SupportedKeysNonEmptyAndUnique)
{
    const auto keys = supportedOverrideKeys();
    EXPECT_GE(keys.size(), 20u);
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]);
}

TEST(Overrides, ConfigFileParsing)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "hypersio_overrides_test.cfg";
    {
        std::ofstream out(path);
        out << "# comment line\n";
        out << "link.gbps = 400   # trailing comment\n";
        out << "\n";
        out << "devtlb.partitions = 8\n";
    }
    SystemConfig config = SystemConfig::base();
    loadConfigFile(config, path.string());
    std::filesystem::remove(path);
    EXPECT_DOUBLE_EQ(config.link.gbps, 400.0);
    EXPECT_EQ(config.device.devtlb.partitions, 8u);
}

trace::HyperTrace
smallTrace(unsigned tenants)
{
    auto logs = workload::generateLogs(workload::Benchmark::Iperf3,
                                       tenants, 42, 0.02);
    return trace::constructTrace(logs,
                                 trace::parseInterleaving("RR1"));
}

/**
 * One stat of the tree by its dotted path below the root, e.g.
 * "dev1.device.packets"; fails the test when it does not exist.
 */
double
statAt(const stats::StatGroup &root, const std::string &path)
{
    const stats::StatGroup *group = &root;
    size_t begin = 0;
    for (size_t dot; (dot = path.find('.', begin)) != std::string::npos;
         begin = dot + 1) {
        const std::string name = path.substr(begin, dot - begin);
        const stats::StatGroup *next = nullptr;
        group->forEachChild([&](const stats::StatGroup &c) {
            if (c.name() == name)
                next = &c;
        });
        if (!next) {
            ADD_FAILURE() << "no stat group " << name << " in " << path;
            return 0.0;
        }
        group = next;
    }
    const stats::StatBase *stat = group->find(path.substr(begin));
    if (!stat) {
        ADD_FAILURE() << "no stat " << path;
        return 0.0;
    }
    return stat->value();
}

/**
 * Regression for the multi-device arrival loop drifting from the
 * single-device one (it ignored per-packet wire sizes). With every
 * SID even, a 2-device system routes the whole trace to device 0:
 * device 1 stays idle and the shared IOMMU sees exactly the traffic
 * of a 1-device system, so every count must match — on a trace
 * where 30% of packets are 256 B, with and without PTB drops.
 */
TEST(MultiSystemTest, IdleSecondDeviceMatchesSingleDevice)
{
    workload::AdversarialConfig tc;
    tc.tenants = 12;
    tc.packets = 1500;
    tc.seed = 11;
    trace::HyperTrace tr = workload::makeAdversarialTrace(
        workload::AdversarialPattern::UniformRandom, tc);
    for (auto &pkt : tr.packets)
        pkt.sid *= 2;
    tr.numTenants *= 2;
    ASSERT_TRUE(std::any_of(tr.packets.begin(), tr.packets.end(),
                            [](const trace::PacketRecord &p) {
                                return p.wireBytes == 256;
                            }));

    for (const SystemConfig &config :
         {SystemConfig::base(), SystemConfig::hypertrio()}) {
        System one(config);
        System two(config, 2);
        const RunResults r1 = one.run(tr);
        const RunResults r2 = two.run(tr);
        SCOPED_TRACE(config.name);
        EXPECT_EQ(r2.packetsProcessed, tr.packets.size());
        EXPECT_EQ(r2.packetsProcessed, r1.packetsProcessed);
        EXPECT_EQ(r2.packetsDropped, r1.packetsDropped);
        EXPECT_EQ(r2.translations, r1.translations);
        EXPECT_EQ(r2.walks, r1.walks);
        EXPECT_EQ(r2.iommuRequests, r1.iommuRequests);
        EXPECT_EQ(r2.elapsed, r1.elapsed);
        EXPECT_GT(r1.packetsDropped, 0u);
        EXPECT_EQ(statAt(two.statsRoot(), "dev0.device.packets"),
                  static_cast<double>(tr.packets.size()));
        EXPECT_EQ(statAt(two.statsRoot(), "dev1.device.packets"), 0.0);
    }
}

TEST(MultiSystemTest, ProcessesAllPacketsAcrossDevices)
{
    const auto tr = smallTrace(16);
    System multi(SystemConfig::hypertrio(), 4);
    const RunResults r = multi.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    double accepted = 0.0;
    for (unsigned d = 0; d < 4; ++d) {
        const double packets = statAt(
            multi.statsRoot(),
            "dev" + std::to_string(d) + ".device.packets");
        EXPECT_GT(packets, 0.0) << "device " << d;
        accepted += packets;
    }
    EXPECT_EQ(accepted, static_cast<double>(tr.packets.size()));
}

TEST(MultiSystemTest, AggregateBandwidthScalesWithDevices)
{
    const auto tr = smallTrace(32);
    System one(SystemConfig::hypertrio(), 1);
    System four(SystemConfig::hypertrio(), 4);
    const double g1 = one.run(tr).achievedGbps;
    const double g4 = four.run(tr).achievedGbps;
    // Four links carry strictly more aggregate traffic.
    EXPECT_GT(g4, g1 * 2.0);
}

TEST(MultiSystemTest, UtilizationNormalisedToDeviceCount)
{
    const auto tr = smallTrace(16);
    System multi(SystemConfig::hypertrio(), 2);
    const RunResults r = multi.run(tr);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_GT(r.utilization, 0.0);
}

/**
 * Base links parked on full PTBs at the same time: every link's
 * arrival process sleeps through its drop slots, and the kernel
 * catches the phantom slots up in (tick, seq) order across links.
 * The trace mixes 64 B and 256 B wire sizes, so the links park with
 * different slot periods. The goldens were recorded from the kernel
 * that fired every drop slot as its own event.
 */
TEST(MultiSystemTest, ParkedLinksMatchEventPerSlotGoldens)
{
    struct Golden
    {
        unsigned devices;
        const char *results;
        uint64_t statsDigest;
        uint64_t scheduledSeq;
    };
    const Golden goldens[] = {
        {2,
         "{\"config\":\"base\",\"packets_processed\":1500,"
         "\"packets_dropped\":56517,\"translations\":4500,"
         "\"elapsed_ticks\":753213360,"
         "\"achieved_gbps\":18.62516087075248,"
         "\"utilization\":0.0465629021768812,"
         "\"devtlb_hit_rate\":0.7391111111111112,"
         "\"pb_hit_rate\":0,\"iotlb_hit_rate\":0.3023850085178876,"
         "\"walks\":819,\"iommu_requests\":1174,"
         "\"avg_packet_latency_ns\":987.008}",
         14834110502939483250ull, 64865},
        {3,
         "{\"config\":\"base\",\"packets_processed\":1500,"
         "\"packets_dropped\":51261,\"translations\":4500,"
         "\"elapsed_ticks\":459288000,"
         "\"achieved_gbps\":30.544494957412343,"
         "\"utilization\":0.05090749159568724,"
         "\"devtlb_hit_rate\":0.7755555555555556,"
         "\"pb_hit_rate\":0,\"iotlb_hit_rate\":0.1891089108910891,"
         "\"walks\":819,\"iommu_requests\":1010,"
         "\"avg_packet_latency_ns\":888.608}",
         14934664964326231648ull, 59281},
    };
    workload::AdversarialConfig tc;
    tc.tenants = 12;
    tc.packets = 1500;
    tc.seed = 11;
    const trace::HyperTrace tr = workload::makeAdversarialTrace(
        workload::AdversarialPattern::UniformRandom, tc);
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.devices);
        System system(SystemConfig::base(), g.devices);
        const RunResults r = system.run(tr);
        EXPECT_EQ(golden::resultsJson(r), g.results);
        EXPECT_EQ(golden::statsDigest(system), g.statsDigest);
        EXPECT_EQ(system.eventQueue().scheduledSeq(), g.scheduledSeq);
    }
}

TEST(MultiSystemDeathTest, StreamingNeedsASingleDevice)
{
    const auto tr = smallTrace(4);
    EXPECT_DEATH(
        {
            System multi(SystemConfig::hypertrio(), 2);
            trace::MaterializedStream stream(tr);
            multi.runStream(stream);
        },
        "streaming runs drive a single device");
}

TEST(MultiSystemDeathTest, SystemRunsOnlyOnce)
{
    const auto tr = smallTrace(4);
    EXPECT_DEATH(
        {
            System system(SystemConfig::hypertrio());
            system.run(tr);
            system.run(tr);
        },
        "may only run once");
    EXPECT_DEATH(
        {
            System system(SystemConfig::hypertrio(), 2);
            system.run(tr);
            system.run(tr);
        },
        "may only run once");
    EXPECT_DEATH(
        {
            System system(SystemConfig::hypertrio());
            trace::MaterializedStream stream(tr);
            system.runStream(stream);
            system.run(tr);
        },
        "may only run once");
    EXPECT_DEATH(
        {
            System system(SystemConfig::hypertrio());
            system.run(trace::HyperTrace{});
            trace::MaterializedStream stream(tr);
            system.runStream(stream);
        },
        "may only run once");
}

TEST(WireBytes, SmallPacketsShortenArrivalIntervals)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 256;
    pattern.smallPacketProb = 1.0; // every packet small
    workload::TenantLogGenerator gen(pattern, 42);
    std::vector<trace::TenantLog> logs{gen.generate(0, 512)};
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));
    for (const auto &pkt : tr.packets)
        EXPECT_EQ(pkt.wireBytes, 256u);

    // In native mode the run finishes ~6x faster than full-size.
    System small(SystemConfig::base());
    const RunResults rs = small.run(tr, /*bypass=*/true);

    std::vector<trace::TenantLog> big_logs{
        workload::TenantLogGenerator(
            workload::benchmarkProfile(workload::Benchmark::Iperf3)
                .pattern,
            42)
            .generate(0, 512)};
    const auto big_tr = trace::constructTrace(
        big_logs, trace::parseInterleaving("RR1"));
    System big(SystemConfig::base());
    const RunResults rb = big.run(big_tr, /*bypass=*/true);

    EXPECT_LT(rs.elapsed, rb.elapsed / 4);
    // Both still saturate their offered load in native mode.
    EXPECT_NEAR(rs.utilization, 1.0, 1e-9);
}

TEST(WireBytes, MixedSizesRoundTripThroughTraceFiles)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 128;
    pattern.smallPacketProb = 0.5;
    workload::TenantLogGenerator gen(pattern, 7);
    std::vector<trace::TenantLog> logs{gen.generate(0, 256)};
    auto tr =
        trace::constructTrace(logs, trace::parseInterleaving("RR1"));

    const auto path = std::filesystem::temp_directory_path() /
                      "hypersio_wirebytes_test.trace";
    trace::saveTrace(tr, path.string());
    const auto loaded = trace::loadTrace(path.string());
    std::filesystem::remove(path);

    ASSERT_EQ(loaded.packets.size(), tr.packets.size());
    size_t small = 0;
    for (size_t i = 0; i < loaded.packets.size(); ++i) {
        EXPECT_EQ(loaded.packets[i].wireBytes,
                  tr.packets[i].wireBytes);
        small += loaded.packets[i].wireBytes == 128 ? 1 : 0;
    }
    // Roughly half the packets are small.
    EXPECT_GT(small, loaded.packets.size() / 4);
    EXPECT_LT(small, loaded.packets.size() * 3 / 4);
}

TEST(WireBytes, BandwidthAccountsActualBytes)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.smallPacketBytes = 256;
    pattern.smallPacketProb = 1.0;
    workload::TenantLogGenerator gen(pattern, 42);
    std::vector<trace::TenantLog> logs{gen.generate(0, 256)};
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));
    System system(SystemConfig::hypertrio());
    const RunResults r = system.run(tr);
    // 256 packets x 256 B = 64 KiB: bandwidth must reflect actual
    // bytes, never the 1542 B default.
    const double max_gbps = 200.0;
    EXPECT_LE(r.achievedGbps, max_gbps + 1e-9);
    EXPECT_GT(r.achievedGbps, 0.0);
    EXPECT_EQ(r.packetsProcessed, 256u);
}

TEST(ScalableIov, GeneratorAssignsPasidsPerProcess)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.processesPerTenant = 3;
    workload::scaleInitPhase(pattern, 600);
    workload::TenantLogGenerator gen(pattern, 42);
    const trace::TenantLog log = gen.generate(0, 600);
    std::set<uint16_t> pasids;
    for (const auto &pkt : log.packets)
        pasids.insert(pkt.pasid);
    EXPECT_EQ(pasids.size(), 3u);
}

TEST(ScalableIov, ProcessesTranslateInSeparateAddressSpaces)
{
    // Same gIOVA, different PASID → different domain → different
    // host frame.
    const auto a = iommu::ContextCache::resolve(4, 0);
    const auto b = iommu::ContextCache::resolve(4, 1);
    EXPECT_NE(a.domain, b.domain);

    iommu::PageTableDirectory tables(42);
    tables.get(a.domain).map(0x1000, mem::PageSize::Size4K);
    tables.get(b.domain).map(0x1000, mem::PageSize::Size4K);
    EXPECT_NE(tables.get(a.domain).translate(0x1000).hostAddr,
              tables.get(b.domain).translate(0x1000).hostAddr);
}

TEST(ScalableIov, EndToEndRunWithProcesses)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    pattern.processesPerTenant = 6;
    workload::scaleInitPhase(pattern, 400);
    workload::TenantLogGenerator gen(pattern, 42);
    std::vector<trace::TenantLog> logs;
    for (unsigned t = 0; t < 8; ++t)
        logs.push_back(gen.generate(t, 400));
    const auto tr = trace::constructTrace(
        logs, trace::parseInterleaving("RR1"));

    System system(SystemConfig::hypertrio());
    const RunResults r = system.run(tr);
    EXPECT_EQ(r.packetsProcessed, tr.packets.size());
    EXPECT_GT(r.achievedGbps, 0.0);
    // Extra address spaces must cost DevTLB hit rate relative to
    // the single-process run.
    workload::TenantPattern single =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    workload::scaleInitPhase(single, 400);
    workload::TenantLogGenerator gen1(single, 42);
    std::vector<trace::TenantLog> logs1;
    for (unsigned t = 0; t < 8; ++t)
        logs1.push_back(gen1.generate(t, 400));
    const auto tr1 = trace::constructTrace(
        logs1, trace::parseInterleaving("RR1"));
    System sys1(SystemConfig::hypertrio());
    const RunResults r1 = sys1.run(tr1);
    EXPECT_LT(r.devtlbHitRate, r1.devtlbHitRate);
}

TEST(ScalableIov, DidEncodingPreservesSidPartitioning)
{
    // Regression guard: the partitioned caches select their PTag row
    // as "domain mod partitions", and the paper partitions by SID.
    // The DID encoding must therefore keep the SID in its low bits:
    // for every power-of-two partition count the paper uses (8, 32,
    // 64), did % parts must equal sid % parts regardless of PASID.
    for (uint32_t parts : {8u, 32u, 64u}) {
        for (trace::SourceId sid : {0u, 5u, 123u, 1023u}) {
            for (uint16_t pasid : {0, 1, 7, 255}) {
                const auto did =
                    iommu::ContextCache::resolve(sid, pasid).domain;
                EXPECT_EQ(did % parts, sid % parts)
                    << "sid=" << sid << " pasid=" << pasid;
                EXPECT_EQ(iommu::ContextCache::sidOf(did), sid);
            }
        }
    }
}

TEST(ScaleInitPhase, BoundsInitShare)
{
    workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Mediastream)
            .pattern;
    workload::scaleInitPhase(pattern, 1000);
    const uint64_t init_packets =
        static_cast<uint64_t>(pattern.numInitPages) *
        pattern.accessesPerInitPage;
    EXPECT_LE(init_packets, 1000 / 100); // well under 1%... of log
    EXPECT_GE(pattern.numInitPages, 1u);

    // Long logs keep the full 70-page init group.
    workload::TenantPattern big =
        workload::benchmarkProfile(workload::Benchmark::Mediastream)
            .pattern;
    workload::scaleInitPhase(big, 10'000'000);
    EXPECT_EQ(big.numInitPages, 70u);
    EXPECT_EQ(big.accessesPerInitPage, 60u);
}

} // namespace
} // namespace hypersio::core
