/**
 * Streaming hyper-scale regime tests.
 *
 * Golden equivalences: the lazy generators (TenantStream,
 * SpliceStream, MaterializedStream) must reproduce the materialized
 * path byte for byte — same packets, same page ops, same RunResults,
 * same stats tree — and the tenant-churn eviction machinery must
 * keep total state O(active slots) while retiring every tenant of an
 * unbounded population.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_system.hh"
#include "core/system.hh"
#include "iommu/context_cache.hh"
#include "trace/constructor.hh"
#include "workload/benchmarks.hh"
#include "workload/streaming.hh"
#include "workload/tenant_model.hh"

namespace hypersio
{
namespace
{

void
expectSamePacket(const trace::PacketRecord &a,
                 const trace::PacketRecord &b, size_t i)
{
    EXPECT_EQ(a.sid, b.sid) << "packet " << i;
    EXPECT_EQ(a.pasid, b.pasid) << "packet " << i;
    EXPECT_EQ(a.opCount, b.opCount) << "packet " << i;
    EXPECT_EQ(a.dataHuge, b.dataHuge) << "packet " << i;
    EXPECT_EQ(a.wireBytes, b.wireBytes) << "packet " << i;
    EXPECT_EQ(a.ringIova, b.ringIova) << "packet " << i;
    EXPECT_EQ(a.dataIova, b.dataIova) << "packet " << i;
    EXPECT_EQ(a.notifyIova, b.notifyIova) << "packet " << i;
}

void
expectSameOps(const trace::PageOp *a, const trace::PageOp *b,
              uint16_t count, size_t i)
{
    for (uint16_t k = 0; k < count; ++k) {
        EXPECT_EQ(a[k].pageBase, b[k].pageBase)
            << "packet " << i << " op " << k;
        EXPECT_EQ(a[k].size, b[k].size)
            << "packet " << i << " op " << k;
        EXPECT_EQ(a[k].isMap, b[k].isMap)
            << "packet " << i << " op " << k;
    }
}

/** TenantStream must equal TenantLogGenerator::generate exactly. */
void
expectStreamMatchesGenerator(const workload::TenantPattern &pattern,
                             uint64_t seed, trace::SourceId sid,
                             uint64_t budget, bool include_init)
{
    const trace::TenantLog log =
        workload::TenantLogGenerator(pattern, seed)
            .generate(sid, budget, include_init);
    workload::TenantStream stream(pattern, seed, sid, budget,
                                  include_init);

    trace::PacketRecord pkt;
    std::vector<trace::PageOp> ops;
    for (size_t i = 0; i < log.packets.size(); ++i) {
        ASSERT_FALSE(stream.exhausted()) << "packet " << i;
        ASSERT_TRUE(stream.next(pkt, ops)) << "packet " << i;
        expectSamePacket(pkt, log.packets[i], i);
        ASSERT_EQ(ops.size(), size_t{log.packets[i].opCount});
        expectSameOps(ops.data(),
                      log.ops.data() + log.packets[i].opBegin,
                      log.packets[i].opCount, i);
    }
    EXPECT_TRUE(stream.exhausted());
    EXPECT_FALSE(stream.next(pkt, ops));
    EXPECT_EQ(stream.emitted(), log.packets.size());
}

TEST(TenantStream, MatchesGeneratorAcrossBenchmarkProfiles)
{
    for (const workload::Benchmark bench :
         workload::AllBenchmarks) {
        const workload::TenantPattern pattern =
            workload::benchmarkProfile(bench).pattern;
        expectStreamMatchesGenerator(pattern, 7, 3, 9000, true);
        expectStreamMatchesGenerator(pattern, 7, 3, 9000, false);
    }
}

TEST(TenantStream, MatchesGeneratorMidInitCutoff)
{
    // A budget that ends inside the init phase exercises the
    // resumable init state machine.
    const workload::TenantPattern pattern =
        workload::benchmarkProfile(workload::Benchmark::Iperf3)
            .pattern;
    for (const uint64_t budget : {0ull, 1ull, 37ull, 250ull})
        expectStreamMatchesGenerator(pattern, 11, 9, budget, true);
}

TEST(TenantStream, MatchesGeneratorScalableIovAndSmallPackets)
{
    workload::TenantPattern p =
        workload::benchmarkProfile(workload::Benchmark::Websearch)
            .pattern;
    p.processesPerTenant = 4;
    p.streams = 8;
    p.smallPacketBytes = 256;
    p.smallPacketProb = 0.35;
    expectStreamMatchesGenerator(p, 23, 17, 6000, true);
}

/** SpliceStream must equal generateLogs + constructTrace exactly. */
void
expectSpliceMatchesTrace(workload::Benchmark bench,
                         unsigned tenants, uint64_t seed,
                         const std::string &interleave, double scale)
{
    const trace::Interleaving mode =
        trace::parseInterleaving(interleave);
    const trace::HyperTrace golden = trace::constructTrace(
        workload::generateLogs(bench, tenants, seed, scale), mode);
    workload::SpliceStream stream(bench, tenants, seed, mode, scale);

    EXPECT_EQ(stream.numTenants(), golden.numTenants);
    for (size_t i = 0; i < golden.packets.size(); ++i) {
        const trace::PacketRecord *head = stream.peek();
        ASSERT_NE(head, nullptr) << "packet " << i;
        expectSamePacket(*head, golden.packets[i], i);
        expectSameOps(stream.ops(),
                      golden.ops.data() + golden.packets[i].opBegin,
                      golden.packets[i].opCount, i);
        stream.advance();
    }
    EXPECT_EQ(stream.peek(), nullptr);
    EXPECT_TRUE(stream.exhausted());
}

TEST(SpliceStream, MatchesConstructTraceRoundRobin)
{
    expectSpliceMatchesTrace(workload::Benchmark::Iperf3, 8, 42,
                             "RR1", 0.02);
    expectSpliceMatchesTrace(workload::Benchmark::Mediastream, 8, 42,
                             "RR4", 0.02);
}

TEST(SpliceStream, MatchesConstructTraceRandom)
{
    expectSpliceMatchesTrace(workload::Benchmark::Websearch, 8, 42,
                             "RAND1", 0.02);
    expectSpliceMatchesTrace(workload::Benchmark::Iperf3, 6, 9,
                             "RAND2", 0.02);
}

std::string
statsJson(const core::System &system)
{
    std::ostringstream os;
    system.dumpStatsJson(os, 0);
    return os.str();
}

/**
 * The golden cross-path equivalence: run() on the materialized
 * trace, runStream() on the lazy stream, and a one-shard
 * ShardedMultiSystem over the same stream (all without eviction)
 * must produce identical RunResults (bit-identical doubles) and
 * identical stats trees.
 */
void
expectGoldenEquivalence(workload::Benchmark bench, unsigned tenants,
                        double scale,
                        const core::SystemConfig &config =
                            core::SystemConfig::hypertrio(),
                        const std::string &interleave = "RR1")
{
    SCOPED_TRACE(config.name + " " + interleave);
    const uint64_t seed = 42;
    const trace::Interleaving mode =
        trace::parseInterleaving(interleave);
    const trace::HyperTrace golden = trace::constructTrace(
        workload::generateLogs(bench, tenants, seed, scale), mode);
    ASSERT_FALSE(golden.packets.empty());

    core::System materialized(config);
    const core::RunResults want = materialized.run(golden);

    core::System streamed(config);
    workload::SpliceStream stream(bench, tenants, seed, mode, scale);
    core::StreamRunOptions opts;
    opts.evictDetached = false; // growth mode: mirror run() exactly
    const core::RunResults got = streamed.runStream(stream, opts);

    EXPECT_TRUE(want == got)
        << "RunResults diverged at " << tenants << " tenants";
    EXPECT_EQ(statsJson(materialized), statsJson(streamed));

    core::ShardedMultiSystem sharded(config, /*shards=*/1);
    const core::ShardedRunResults shard = sharded.run(
        [&](unsigned) {
            return std::make_unique<workload::SpliceStream>(
                bench, tenants, seed, mode, scale);
        },
        opts);
    ASSERT_EQ(shard.perShard.size(), 1u);
    EXPECT_TRUE(want == shard.perShard[0])
        << "one-shard run diverged at " << tenants << " tenants";
    EXPECT_EQ(statsJson(materialized), statsJson(sharded.shard(0)));
}

TEST(GoldenEquivalence, Tenants64) {
    expectGoldenEquivalence(workload::Benchmark::Iperf3, 64, 0.02);
    // Base (PTB 1: drop/retry every slot) and the RR4 / RAND1
    // interleavings go through the same three paths.
    expectGoldenEquivalence(workload::Benchmark::Iperf3, 64, 0.02,
                            core::SystemConfig::base());
    expectGoldenEquivalence(workload::Benchmark::Mediastream, 64,
                            0.02, core::SystemConfig::base(), "RR4");
    expectGoldenEquivalence(workload::Benchmark::Websearch, 64, 0.02,
                            core::SystemConfig::base(), "RAND1");
    expectGoldenEquivalence(workload::Benchmark::Websearch, 64, 0.02,
                            core::SystemConfig::hypertrio(), "RAND1");
}

TEST(GoldenEquivalence, Tenants256) {
    expectGoldenEquivalence(workload::Benchmark::Mediastream, 256,
                            0.005);
}

TEST(GoldenEquivalence, Tenants1024) {
    expectGoldenEquivalence(workload::Benchmark::Iperf3, 1024,
                            0.002);
}

TEST(GoldenEquivalence, MaterializedStreamAdapter)
{
    // The trivial adapter must also be event-for-event identical.
    const trace::HyperTrace golden = trace::constructTrace(
        workload::generateLogs(workload::Benchmark::Websearch, 32,
                               42, 0.02),
        trace::parseInterleaving("RR1"));

    core::System direct(core::SystemConfig::hypertrio());
    const core::RunResults want = direct.run(golden);

    core::System adapted(core::SystemConfig::hypertrio());
    trace::MaterializedStream stream(golden);
    core::StreamRunOptions opts;
    opts.evictDetached = false;
    const core::RunResults got = adapted.runStream(stream, opts);

    EXPECT_TRUE(want == got);
    EXPECT_EQ(statsJson(direct), statsJson(adapted));
}

/**
 * Decorator probing the O(active) invariant from inside the run: on
 * every peek, the page-table directory must hold at most one domain
 * per SID slot (times the PASID spread, 1 here).
 */
class DirectoryBoundProbe : public trace::PacketStream
{
  public:
    DirectoryBoundProbe(trace::PacketStream &inner,
                        const core::System &system, size_t bound)
        : _inner(inner), _system(system), _bound(bound)
    {}

    const trace::PacketRecord *
    peek() override
    {
        _maxSeen = std::max(_maxSeen, _system.tables().size());
        EXPECT_LE(_system.tables().size(), _bound);
        return _inner.peek();
    }
    const trace::PageOp *ops() const override { return _inner.ops(); }
    void advance() override { _inner.advance(); }
    bool exhausted() override { return _inner.exhausted(); }
    uint32_t numTenants() const override
    {
        return _inner.numTenants();
    }
    void
    drainDetached(std::vector<trace::SourceId> &out) override
    {
        _inner.drainDetached(out);
    }
    void sidRetired(trace::SourceId sid) override
    {
        _inner.sidRetired(sid);
    }

    size_t maxSeen() const { return _maxSeen; }

  private:
    trace::PacketStream &_inner;
    const core::System &_system;
    size_t _bound;
    size_t _maxSeen = 0;
};

TEST(TenantEviction, ChurnRetiresEveryTenantAndFreesAllState)
{
    workload::ChurnConfig cfg;
    cfg.population = 120;
    cfg.slots = 8;
    cfg.seed = 7;
    cfg.minBudget = 24;
    cfg.maxBudget = 64;
    cfg.tailMin = 200;
    cfg.tailMax = 400;

    core::System system(core::SystemConfig::hypertrio());
    workload::ChurnStream churn(cfg);
    DirectoryBoundProbe probe(churn, system, cfg.slots);
    const core::RunResults results = system.runStream(probe);

    EXPECT_GT(results.packetsProcessed, 0u);
    EXPECT_EQ(churn.attaches(), cfg.population);
    EXPECT_EQ(system.streamRetirements().size(), cfg.population);
    // O(active): never more live domains than slots, none at the end.
    EXPECT_GT(probe.maxSeen(), 0u);
    EXPECT_LE(probe.maxSeen(), size_t{cfg.slots});
    EXPECT_EQ(system.tables().size(), 0u);
    // Chipset access history retires in lock-step with the tables.
    ASSERT_NE(system.historyReader(), nullptr);
    EXPECT_EQ(system.historyReader()->historySize(), 0u);
}

TEST(TenantEviction, DropRetryStreamAdmissionRetiresEveryTenant)
{
    // A one-entry PTB makes most arrival slots drops, which re-arm
    // from the head packet's cached slot without touching the
    // stream: every virtual tenant must still attach, drain, and
    // retire, and no packet may be lost to a drop.
    workload::ChurnConfig cfg;
    cfg.population = 120;
    cfg.slots = 8;
    cfg.seed = 7;
    cfg.minBudget = 24;
    cfg.maxBudget = 64;
    cfg.tailMin = 200;
    cfg.tailMax = 400;

    core::SystemConfig sys_cfg = core::SystemConfig::hypertrio();
    sys_cfg.device.ptbEntries = 1;
    core::System system(sys_cfg);
    workload::ChurnStream churn(cfg);
    const core::RunResults results = system.runStream(churn);

    EXPECT_GT(results.packetsDropped, 0u);
    EXPECT_EQ(results.packetsProcessed, churn.produced());
    EXPECT_EQ(churn.attaches(), cfg.population);
    EXPECT_EQ(system.streamRetirements().size(), cfg.population);
    EXPECT_EQ(system.tables().size(), 0u);
}

TEST(TenantEviction, RetirementLogIsOrderedAndCoversAllSids)
{
    workload::ChurnConfig cfg;
    cfg.population = 40;
    cfg.slots = 4;
    cfg.seed = 3;
    cfg.minBudget = 16;
    cfg.maxBudget = 48;
    cfg.tailProb = 0.0;

    core::System system(core::SystemConfig::hypertrio());
    workload::ChurnStream churn(cfg);
    system.runStream(churn);

    const auto &log = system.streamRetirements();
    ASSERT_EQ(log.size(), cfg.population);
    std::vector<uint64_t> per_sid(cfg.slots, 0);
    for (size_t i = 1; i < log.size(); ++i) {
        // The (tick, seq) key is non-decreasing: it is the event
        // kernel's own ordering at retirement time.
        EXPECT_TRUE(log[i - 1].tick < log[i].tick ||
                    (log[i - 1].tick == log[i].tick &&
                     log[i - 1].seq <= log[i].seq))
            << "entry " << i;
    }
    for (const core::StreamRetirement &r : log) {
        ASSERT_LT(r.sid, cfg.slots);
        ++per_sid[r.sid];
    }
    uint64_t total = 0;
    for (const uint64_t n : per_sid) {
        EXPECT_GT(n, 0u);
        total += n;
    }
    EXPECT_EQ(total, cfg.population);
}

TEST(TenantEviction, DirectoryEraseGivesFreshDeterministicTables)
{
    iommu::PageTableDirectory dir(42);
    const mem::DomainId did = 17;
    mem::PageTable &table = dir.get(did);
    table.map(0x34800000, mem::PageSize::Size4K);
    const mem::Translation before = table.translate(0x34800123);
    ASSERT_TRUE(before.valid);

    ASSERT_TRUE(dir.erase(did));
    EXPECT_EQ(dir.find(did), nullptr);
    EXPECT_EQ(dir.size(), 0u);

    // A re-attached tenant gets a fresh (empty) table; pages it maps
    // again land on the same deterministic frames (frame = hash of
    // directory seed, domain, and page base — re-creation included).
    mem::PageTable &fresh = dir.get(did);
    EXPECT_FALSE(fresh.translate(0x34800123).valid);
    fresh.map(0x34800000, mem::PageSize::Size4K);
    const mem::Translation after = fresh.translate(0x34800123);
    ASSERT_TRUE(after.valid);
    EXPECT_EQ(after.hostAddr, before.hostAddr);
}

#ifdef HYPERSIO_CHECKED
TEST(TenantEviction, ChurnStormIsShadowCleanWhenChecked)
{
    // A full churn storm under the collecting differential oracle:
    // eviction must keep the mirrors (DevTLB/PB/IOTLB/paging, PTB,
    // predictor, history) in lock-step — zero violations.
    workload::ChurnConfig cfg;
    cfg.population = 96;
    cfg.slots = 6;
    cfg.seed = 13;
    cfg.minBudget = 24;
    cfg.maxBudget = 64;
    cfg.tailMin = 200;
    cfg.tailMax = 300;

    core::System system(core::SystemConfig::hypertrio());
    oracle::ShadowChecker checker(
        core::toShadowConfig(system.config()), &system.tables(),
        /*fail_fast=*/false);
    workload::ChurnStream churn(cfg);
    {
        oracle::ShadowScope scope(checker);
        system.runStream(churn);
    }
    EXPECT_GT(checker.eventCount(), 0u);
    EXPECT_EQ(checker.violationCount(), 0u)
        << (checker.violations().empty()
                ? ""
                : checker.violations().front());
    EXPECT_EQ(system.streamRetirements().size(), cfg.population);
    EXPECT_EQ(system.tables().size(), 0u);
}
#endif

core::SystemConfig
mmuPrefetchConfig()
{
    core::SystemConfig config = core::SystemConfig::base();
    config.name = "mmu-prefetch";
    config.device.ptbEntries = 32;
    config.device.prefetch.enabled = true;
    config.device.prefetch.kind = core::PrefetchKind::MmuDma;
    config.device.prefetch.bufferEntries = 32;
    config.device.prefetch.pagesPerPrefetch = 2;
    return config;
}

core::SystemConfig
subEntryConfig()
{
    core::SystemConfig config = core::SystemConfig::base();
    config.name = "sub-entry";
    config.device.devtlb.subEntries = 4;
    config.iommu.l2tlb.subEntries = 4;
    config.iommu.l3tlb.subEntries = 4;
    return config;
}

workload::ChurnConfig
mechanismChurn()
{
    workload::ChurnConfig cfg;
    cfg.population = 96;
    cfg.slots = 6;
    cfg.seed = 11;
    cfg.minBudget = 24;
    cfg.maxBudget = 64;
    cfg.tailMin = 200;
    cfg.tailMax = 300;
    return cfg;
}

TEST(TenantEviction, ChurnDetachesMmuPrefetchStreams)
{
    // MMU-prefetch lifecycle under churn: stream detectors must
    // retire with their tenant (Device::retireDomain), and the
    // issue-to-completion pending counter must gate retirement so no
    // in-flight MMU prefetch outlives its page tables.
    const workload::ChurnConfig cfg = mechanismChurn();
    core::System system(mmuPrefetchConfig());
    workload::ChurnStream churn(cfg);
    const core::RunResults results = system.runStream(churn);

    EXPECT_GT(results.packetsProcessed, 0u);
    EXPECT_EQ(system.streamRetirements().size(), cfg.population);
    EXPECT_EQ(system.tables().size(), 0u);
    // The detectors trained and then fully detached.
    EXPECT_GT(system.device().prefetchesSent(), 0u);
    EXPECT_EQ(system.device().mmuStreams(), 0u);
    EXPECT_EQ(system.historyReader(), nullptr);
}

TEST(TenantEviction, ChurnDetachesSubEntrySharedState)
{
    // Sub-entry sharing lifecycle under churn: a retiring tenant's
    // sub-entries must all leave the shared tags, so the caches end
    // the run empty even though tags were co-resident across DIDs.
    const workload::ChurnConfig cfg = mechanismChurn();
    core::System system(subEntryConfig());
    workload::ChurnStream churn(cfg);
    const core::RunResults results = system.runStream(churn);

    EXPECT_GT(results.packetsProcessed, 0u);
    EXPECT_EQ(system.streamRetirements().size(), cfg.population);
    EXPECT_EQ(system.tables().size(), 0u);
    EXPECT_EQ(system.device().devtlbOccupancy(), 0u);
}

TEST(ShardedMultiSystem, JobsCountInvariantForNewMechanisms)
{
    // Bit-identical results at jobs=1 and jobs=3 for both mechanism
    // configurations (the sub-entry and MMU-prefetch state must stay
    // shard-private, with no hidden cross-thread coupling).
    for (const core::SystemConfig &config :
         {mmuPrefetchConfig(), subEntryConfig()}) {
        auto factory = [](unsigned shard) {
            workload::ChurnConfig cfg = mechanismChurn();
            cfg.population = 40 + shard * 8;
            cfg.seed = hashCombine(29, shard);
            return std::make_unique<workload::ChurnStream>(cfg);
        };
        core::ShardedMultiSystem serial(config, 3, 1);
        const core::ShardedRunResults a = serial.run(factory);
        core::ShardedMultiSystem threaded(config, 3, 3);
        const core::ShardedRunResults b = threaded.run(factory);
        EXPECT_TRUE(a == b) << "config " << config.name;
        for (unsigned s = 0; s < 3; ++s) {
            EXPECT_EQ(statsJson(serial.shard(s)),
                      statsJson(threaded.shard(s)))
                << "config " << config.name << " shard " << s;
        }
    }
}

TEST(ShardedMultiSystem, MergesDeterministicRetirementTimeline)
{
    auto factory = [](unsigned shard) {
        workload::ChurnConfig cfg;
        cfg.population = 50 + shard * 10;
        cfg.slots = 5;
        cfg.seed = hashCombine(21, shard);
        cfg.minBudget = 16;
        cfg.maxBudget = 40;
        cfg.tailProb = 0.0;
        return std::make_unique<workload::ChurnStream>(cfg);
    };

    core::ShardedMultiSystem sharded(
        core::SystemConfig::hypertrio(), 3, 1);
    const core::ShardedRunResults results = sharded.run(factory);

    EXPECT_EQ(results.tenantsRetired, 50u + 60u + 70u);
    EXPECT_EQ(results.retirements.size(), results.tenantsRetired);
    for (size_t i = 1; i < results.retirements.size(); ++i) {
        const core::GlobalRetirement &a = results.retirements[i - 1];
        const core::GlobalRetirement &b = results.retirements[i];
        EXPECT_TRUE(a.tick < b.tick ||
                    (a.tick == b.tick &&
                     (a.shard < b.shard ||
                      (a.shard == b.shard && a.seq <= b.seq))))
            << "entry " << i;
    }
    EXPECT_NE(results.mergeChecksum, 0u);
    EXPECT_LT(results.mergeChecksum, uint64_t{1} << 48);
}

} // namespace
} // namespace hypersio
