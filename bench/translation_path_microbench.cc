/**
 * @file
 * Translation-path microbenchmark: replays deterministic adversarial
 * hyper-traces through the full Device→Chipset→IOMMU system and
 * reports end-to-end packets/sec plus per-structure probe counts.
 *
 * This is the measurement harness for the flat-hash/SoA data layouts
 * and their 16-wide group probes: scripts/check_repo.sh builds it
 * twice with -DHYPERSIO_CHECKED=OFF (the shadow oracle's own mirrors
 * would otherwise dominate the probes being measured), once with the
 * SIMD probe backend and once with -DHYPERSIO_SIMD_PROBES=OFF, and
 * compares the two. Each pattern runs twice: a timed full-system
 * replay, whose cycles are mostly event-kernel and callback plumbing
 * and whose probe counts anchor the cross-build differential check,
 * and a functional replay (see FunctionalPath below) that drives
 * only the translation structures and therefore isolates the probe
 * cost.
 *
 * Three adversarial patterns run through the HyperTRIO configuration
 * (PTB 32, partitioned DevTLB, prefetching on, so the SID predictor,
 * history reader, and Prefetch Buffer are all live):
 *
 *   uniform_random  random SIDs/pages/sizes — big page-table
 *                   directories, mixed 4K/2M translate probes
 *   pb_thrash       large per-tenant working set — miss-heavy, walk-
 *                   and MSHR-bound
 *   huge_mix        per-packet 2M/4K mix — stresses the page-size
 *                   discriminator fast path
 *
 * Every run must process the whole trace; the harness asserts the
 * packet accounting so a broken build cannot "win" by dropping work.
 * The probe-count scalars are machine-independent and bit-identical
 * across probe backends — scripts/bench_speedup.py cross-checks them
 * when computing the speedup, so the gate doubles as a differential
 * test between the SIMD and scalar backends.
 *
 * Usage:
 *   translation_path_microbench [--packets N] [--tenants N]
 *       [--reps N] [--smoke] [--json FILE]
 *
 * The JSON report (schema hypersio-bench-1) carries the exact probe
 * counts plus the measured rates (machine-dependent;
 * scripts/check_repo.sh requires the counts to match the committed
 * BENCH_translation_path.json exactly).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cache/set_assoc_cache.hh"
#include "core/prefetch.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "iommu/iommu.hh"
#include "iommu/keys.hh"
#include "json_report.hh"
#include "util/flat_map.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "workload/adversarial.hh"

namespace
{

using namespace hypersio;

struct Options
{
    uint64_t packets = 24000;
    unsigned tenants = 2048;
    unsigned reps = 3;
    std::string jsonPath;
    bool smoke = false;
    bool functionalOnly = false;
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [--packets N] [--tenants N] [--reps N] [--smoke]\n"
        "          [--json FILE]\n"
        "  --packets N  packets per pattern (default 24000)\n"
        "  --tenants N  hyper-tenant count (default 2048)\n"
        "  --reps N     timed replays per pattern (default 3)\n"
        "  --smoke      small run for CI smoke (1200 packets,\n"
        "               32 tenants, 1 rep)\n"
        "  --functional-only\n"
        "               skip the timed full-system replays; run\n"
        "               only the structure-level functional replay\n"
        "               (profiling aid, see scripts/profile.sh)\n"
        "  --json FILE  write a hypersio-bench-1 report\n",
        argv0);
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            return argv[++i];
        };
        if (arg == "--packets") {
            opts.packets = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--tenants") {
            opts.tenants = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 0));
        } else if (arg == "--reps") {
            opts.reps = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 0));
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--functional-only") {
            opts.functionalOnly = true;
        } else if (arg == "--json") {
            opts.jsonPath = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
            usage(argv[0], 2);
        }
    }
    if (opts.smoke) {
        opts.packets = 1200;
        opts.tenants = 32;
        opts.reps = 1;
    }
    if (opts.packets == 0 || opts.tenants == 0 || opts.reps == 0)
        usage(argv[0], 2);
    return opts;
}

using bench::wallSeconds;

/** The probe counters one pattern run produces (deterministic). */
struct ProbeCounts
{
    uint64_t translations = 0;
    uint64_t devtlb = 0;
    uint64_t pb = 0;
    uint64_t context = 0;
    uint64_t iotlb = 0;
    uint64_t l2 = 0;
    uint64_t l3 = 0;
    uint64_t walks = 0;
    uint64_t iommuRequests = 0;
};

/**
 * Functional replay: the translation path's structure traffic with
 * the discrete-event engine stripped away.
 *
 * The timed full-system runs above spend most of their cycles in the
 * event kernel and callback plumbing, which no probe backend touches
 * — they dilute the measurement of the probes. This replay drives
 * the *real* structures (SetAssocCache DevTLB/IOTLB/L2/L3,
 * PrefetchUnit with its SID predictor, PageTableDirectory and its
 * PageTables, a per-tenant FlatMap history) through the same
 * deterministic packet stream, synchronously: per packet, apply the
 * page map/unmap ops, train the predictor, run one predictor-driven
 * prefetch fill, and translate ring + data + notify through the
 * DevTLB → PB → IOTLB → L2/L3 → page-walk hierarchy with the
 * standard fill-on-miss flow.
 *
 * Every probe lands on a flat-hash/SoA structure, so its packets/sec
 * isolates the probe cost. All counts it produces are deterministic
 * and backend-independent (nothing here iterates a map), which
 * bench_speedup.py exploits as a cross-build differential check.
 */
class FunctionalPath
{
  public:
    explicit FunctionalPath(const core::SystemConfig &cfg)
        : _devtlb(cfg.device.devtlb),
          _devtlbPartitions(
              static_cast<uint32_t>(cfg.device.devtlb.partitions)),
          _iotlb(cfg.iommu.iotlb), _l2(cfg.iommu.l2tlb),
          _l3(cfg.iommu.l3tlb), _prefetch(cfg.device.prefetch),
          _tables(cfg.seed)
    {}

    void
    replay(const trace::HyperTrace &trace)
    {
        for (const auto &pkt : trace.packets) {
            const mem::DomainId did = pkt.sid;
            applyOps(trace, pkt);
            _prefetch.observePacket(pkt.sid);
            prefetchFor(pkt.sid);
            translate(did, pkt.sid, pkt.ringIova,
                      mem::PageSize::Size4K);
            translate(did, pkt.sid, pkt.dataIova,
                      pkt.dataHuge ? mem::PageSize::Size2M
                                   : mem::PageSize::Size4K);
            translate(did, pkt.sid, pkt.notifyIova,
                      mem::PageSize::Size4K);
        }
    }

    uint64_t translations() const { return _translations; }
    uint64_t walks() const { return _walks; }
    uint64_t devtlbLookups() const { return _devtlb.stats().lookups; }
    uint64_t iotlbLookups() const { return _iotlb.stats().lookups; }
    uint64_t l2Lookups() const { return _l2.stats().lookups; }
    uint64_t l3Lookups() const { return _l3.stats().lookups; }
    uint64_t pbLookups() const { return _prefetch.bufferStats().lookups; }

  private:
    void
    applyOps(const trace::HyperTrace &trace,
             const trace::PacketRecord &pkt)
    {
        for (uint16_t i = 0; i < pkt.opCount; ++i) {
            const trace::PageOp &op = trace.ops[pkt.opBegin + i];
            mem::PageTable &table = _tables.get(pkt.sid);
            if (op.isMap) {
                table.map(op.pageBase, op.size);
            } else {
                table.unmap(op.pageBase);
                const uint64_t key = iommu::translationKey(
                    pkt.sid, op.pageBase, op.size);
                const uint64_t index =
                    iommu::translationIndex(op.pageBase, op.size);
                _devtlb.invalidate(key, index,
                                   partitionOf(pkt.sid));
                _iotlb.invalidate(key, index);
                _prefetch.invalidate(pkt.sid, op.pageBase, op.size);
            }
        }
    }

    uint32_t
    partitionOf(trace::SourceId sid) const
    {
        return static_cast<uint32_t>(sid) % _devtlbPartitions;
    }

    /** One predictor-driven Prefetch Buffer fill, as the device's
     * prefetcher would issue it for the predicted next tenant. */
    void
    prefetchFor(trace::SourceId sid)
    {
        const auto predicted = _prefetch.predict(sid);
        if (!predicted)
            return;
        const uint64_t *last = _lastIova.find(*predicted);
        if (!last)
            return;
        const mem::Iova iova = *last & ~uint64_t{1};
        const mem::PageSize size = (*last & 1)
                                       ? mem::PageSize::Size2M
                                       : mem::PageSize::Size4K;
        const mem::Translation tr =
            _tables.get(*predicted).translate(iova);
        if (tr.valid)
            _prefetch.fill(*predicted, iova, size, tr.hostAddr);
    }

    void
    translate(mem::DomainId did, trace::SourceId sid, mem::Iova iova,
              mem::PageSize size)
    {
        ++_translations;
        _lastIova[did] =
            iova | (size == mem::PageSize::Size2M ? 1 : 0);
        const uint64_t key = iommu::translationKey(did, iova, size);
        const uint64_t index = iommu::translationIndex(iova, size);
        const uint32_t part = partitionOf(sid);
        if (_devtlb.lookup(key, index, part))
            return;
        mem::Addr host = 0;
        if (_prefetch.lookup(did, iova, size, host)) {
            _devtlb.insert(key, index, host, part);
            return;
        }
        if (const mem::Addr *h = _iotlb.lookup(key, index)) {
            _devtlb.insert(key, index, *h, part);
            return;
        }
        // Paging-structure caches cover the upper walk levels; key
        // on the page-directory range of the gIOVA.
        const uint64_t l2_key =
            iommu::translationKey(did, iova >> 9, size);
        const uint64_t l2_index =
            iommu::translationIndex(iova >> 9, size);
        const bool l2_hit = _l2.lookup(l2_key, l2_index) != nullptr;
        const uint64_t l3_key =
            iommu::translationKey(did, iova >> 18, size);
        const uint64_t l3_index =
            iommu::translationIndex(iova >> 18, size);
        const bool l3_hit =
            l2_hit || _l3.lookup(l3_key, l3_index) != nullptr;
        ++_walks;
        mem::PageTable &table = _tables.get(did);
        mem::Translation tr = table.translate(iova);
        if (!tr.valid) {
            // The trace maps pages before first use, but replayed
            // unmaps can race a later packet; map on demand like
            // the timed model's walk path does.
            table.map(iova, size);
            tr = table.translate(iova);
        }
        if (!l3_hit)
            _l3.insert(l3_key, l3_index, tr.hostAddr);
        if (!l2_hit)
            _l2.insert(l2_key, l2_index, tr.hostAddr);
        _iotlb.insert(key, index, tr.hostAddr);
        _devtlb.insert(key, index, tr.hostAddr, part);
    }

    cache::SetAssocCache<mem::Addr> _devtlb;
    uint32_t _devtlbPartitions;
    cache::SetAssocCache<mem::Addr> _iotlb;
    cache::SetAssocCache<mem::Addr> _l2;
    cache::SetAssocCache<mem::Addr> _l3;
    core::PrefetchUnit _prefetch;
    iommu::PageTableDirectory _tables;
    util::FlatMap<mem::DomainId, uint64_t> _lastIova;
    uint64_t _translations = 0;
    uint64_t _walks = 0;
};

/**
 * Walk storm: a TLB-less tenant-lifecycle replay that lands every
 * single probe on the open-addressed map structures — the page-table
 * directory, the per-domain page tables (populated and churned
 * through the trace's map/unmap ops), the SID-predictor table, and
 * the per-tenant history map.
 *
 * The trace's packets are regrouped into tenant *windows* (in order
 * of first appearance): at most LiveWindow tenants are live at a
 * time, their packets are served in round-robin bursts (preserving
 * each tenant's own packet order), and once a window's packets are
 * exhausted every tenant in it detaches — its page table and history
 * entry are torn down — before the next window attaches. This is the
 * paper's hyper-tenancy premise taken to its worst case: tenants
 * arrive, map their rings and buffers, walk on every translation
 * (no TLBs here), and leave, thousands of times per run.
 *
 * This is the rate scripts/check_repo.sh gates at >= 1.15x SIMD over
 * scalar probes: unlike the functional replay above, no cycles go to
 * replacement-policy bookkeeping that both backends share, so the
 * ratio reflects the attach / probe / detach cost of the data
 * layouts and nothing else.
 */
class WalkStorm
{
  public:
    /** Concurrently live tenants (fig10's top tenant count). */
    static constexpr size_t LiveWindow = 64;
    /** Packets served per tenant per round-robin turn. */
    static constexpr size_t Burst = 4;

    struct Window
    {
        /**
         * The window's packets, materialized in visit order with
         * their ops re-based into `ops`, so the timed replay
         * streams sequentially instead of gathering from the trace
         * at random — that gather cost is layout-independent and
         * would only dilute the measured ratio.
         */
        std::vector<trace::PacketRecord> packets;
        std::vector<trace::PageOp> ops;
        std::vector<mem::DomainId> tenants;
    };

    /**
     * Precomputed visit order (built outside the timed region):
     * per-window round-robin bursts over the window's tenants.
     */
    static std::vector<Window>
    makeSchedule(const trace::HyperTrace &trace)
    {
        std::vector<mem::DomainId> order;
        std::vector<std::vector<uint32_t>> perTenant;
        util::FlatMap<mem::DomainId, uint32_t> indexOf;
        for (uint32_t i = 0; i < trace.packets.size(); ++i) {
            const mem::DomainId sid = trace.packets[i].sid;
            auto [idx, inserted] = indexOf.tryEmplace(sid);
            if (inserted) {
                *idx = static_cast<uint32_t>(order.size());
                order.push_back(sid);
                perTenant.emplace_back();
            }
            perTenant[*idx].push_back(i);
        }

        std::vector<Window> windows;
        for (size_t w0 = 0; w0 < order.size(); w0 += LiveWindow) {
            Window win;
            const size_t w1 =
                std::min(w0 + LiveWindow, order.size());
            win.tenants.assign(order.begin() + w0,
                               order.begin() + w1);
            std::vector<size_t> cursor(w1 - w0, 0);
            bool more = true;
            while (more) {
                more = false;
                for (size_t t = 0; t < cursor.size(); ++t) {
                    const auto &list = perTenant[w0 + t];
                    for (size_t b = 0;
                         b < Burst && cursor[t] < list.size();
                         ++b) {
                        trace::PacketRecord pkt =
                            trace.packets[list[cursor[t]++]];
                        const auto *ops =
                            trace.ops.data() + pkt.opBegin;
                        pkt.opBegin = static_cast<uint32_t>(
                            win.ops.size());
                        win.ops.insert(win.ops.end(), ops,
                                       ops + pkt.opCount);
                        win.packets.push_back(pkt);
                    }
                    more = more || cursor[t] < list.size();
                }
            }
            windows.push_back(std::move(win));
        }
        return windows;
    }

    explicit WalkStorm(const core::SystemConfig &cfg)
        : _predictor(cfg.device.prefetch.historyLength),
          _tables(cfg.seed)
    {}

    void
    replay(const std::vector<Window> &schedule)
    {
        for (const Window &win : schedule) {
            for (const trace::PacketRecord &pkt : win.packets) {
                const mem::DomainId did = pkt.sid;
                for (uint16_t o = 0; o < pkt.opCount; ++o) {
                    const trace::PageOp &op =
                        win.ops[pkt.opBegin + o];
                    mem::PageTable &table = _tables.get(did);
                    if (op.isMap)
                        table.map(op.pageBase, op.size);
                    else
                        table.unmap(op.pageBase);
                }
                _predictor.train(pkt.sid);
                if (const auto next = _predictor.predict(pkt.sid))
                    _history[*next] ^= pkt.ringIova;
                _history[did] += 1;
                walk(did, pkt.ringIova, mem::PageSize::Size4K);
                walk(did, pkt.dataIova,
                     pkt.dataHuge ? mem::PageSize::Size2M
                                  : mem::PageSize::Size4K);
                walk(did, pkt.notifyIova, mem::PageSize::Size4K);
            }
            // Tenant teardown: the whole window leaves the host.
            for (const mem::DomainId did : win.tenants) {
                _detaches += _tables.erase(did);
                _history.erase(did);
            }
        }
    }

    uint64_t walks() const { return _walks; }
    uint64_t mapped() const { return _mapped; }
    uint64_t detaches() const { return _detaches; }

  private:
    void
    walk(mem::DomainId did, mem::Iova iova, mem::PageSize size)
    {
        ++_walks;
        mem::PageTable &table = _tables.get(did);
        mem::Translation tr = table.translate(iova);
        if (!tr.valid) {
            table.map(iova, size);
            tr = table.translate(iova);
        }
        _mapped += tr.valid;
    }

    core::SidPredictor _predictor;
    iommu::PageTableDirectory _tables;
    util::FlatMap<mem::DomainId, uint64_t> _history;
    uint64_t _walks = 0;
    uint64_t _mapped = 0;
    uint64_t _detaches = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const auto wall0 = std::chrono::steady_clock::now();

    core::BenchOptions ropts;
    ropts.jsonPath = opts.jsonPath;
    bench::JsonReport report("translation_path_microbench", ropts);

    constexpr workload::AdversarialPattern Patterns[] = {
        workload::AdversarialPattern::UniformRandom,
        workload::AdversarialPattern::PbThrash,
        workload::AdversarialPattern::HugeMix,
    };

    std::printf("translation path microbench: %llu packets x %u "
                "tenants x %u reps per pattern\n",
                (unsigned long long)opts.packets, opts.tenants,
                opts.reps);
    std::printf("%-16s %12s %10s %10s %10s %10s %10s %10s\n",
                "pattern", "packets/s", "walks", "devtlb", "pb",
                "iotlb", "l2", "l3");

    uint64_t total_packets = 0;
    double total_wall = 0.0;
    uint64_t total_fn_packets = 0;
    double total_fn_wall = 0.0;
    uint64_t total_ws_packets = 0;
    double total_ws_wall = 0.0;

    for (const auto pattern : Patterns) {
        workload::AdversarialConfig tcfg;
        tcfg.tenants = opts.tenants;
        tcfg.packets = opts.packets;
        tcfg.seed = 42;
        const trace::HyperTrace trace =
            workload::makeAdversarialTrace(pattern, tcfg);

        ProbeCounts probes;
        double wall = 0.0;
        for (unsigned rep = 0;
             !opts.functionalOnly && rep < opts.reps; ++rep) {
            core::SystemConfig cfg = core::SystemConfig::hypertrio();
            core::System system(cfg);
            const auto t0 = std::chrono::steady_clock::now();
            const core::RunResults results = system.run(trace);
            const double dt = wallSeconds(t0);
            wall = rep == 0 ? dt : std::min(wall, dt);

            // A run that fails to process the whole trace must not
            // produce a rate at all.
            HYPERSIO_ASSERT(results.packetsProcessed ==
                                trace.packets.size(),
                            "run processed %llu of %zu packets",
                            (unsigned long long)
                                results.packetsProcessed,
                            trace.packets.size());

            ProbeCounts p;
            p.translations = results.translations;
            p.devtlb = system.device().devtlbStats().lookups;
            p.context = system.device().contextStats().lookups;
            const cache::CacheStats *pb =
                system.device().prefetchBufferStats();
            p.pb = pb ? pb->lookups : 0;
            p.iotlb = system.iommuUnit().iotlbStats().lookups;
            p.l2 = system.iommuUnit().l2Stats().lookups;
            p.l3 = system.iommuUnit().l3Stats().lookups;
            p.walks = results.walks;
            p.iommuRequests = results.iommuRequests;

            if (rep == 0) {
                probes = p;
            } else {
                // The simulator is deterministic: every rep must
                // probe identically.
                HYPERSIO_ASSERT(p.walks == probes.walks &&
                                    p.devtlb == probes.devtlb &&
                                    p.iotlb == probes.iotlb,
                                "probe counts drifted across reps");
            }
        }

        // Rates are best-of-reps (minimum wall time): the counts are
        // deterministic across reps, so the fastest rep is the one
        // least disturbed by background noise on the host.
        const uint64_t packets = trace.packets.size();
        const char *name = workload::adversarialPatternName(pattern);
        const std::string prefix = name;
        if (!opts.functionalOnly) {
            total_packets += packets;
            total_wall += wall;
            const double pps =
                bench::perSecond(packets, wall);
            std::printf("%-16s %12.0f %10llu %10llu %10llu %10llu "
                        "%10llu %10llu\n",
                        name, pps, (unsigned long long)probes.walks,
                        (unsigned long long)probes.devtlb,
                        (unsigned long long)probes.pb,
                        (unsigned long long)probes.iotlb,
                        (unsigned long long)probes.l2,
                        (unsigned long long)probes.l3);

            report.addScalar(prefix + "_packets",
                             static_cast<double>(
                                 trace.packets.size()));
            report.addScalar(prefix + "_packets_per_sec", pps);
            report.addScalar(prefix + "_translations",
                             static_cast<double>(
                                 probes.translations));
            report.addScalar(prefix + "_devtlb_lookups",
                             static_cast<double>(probes.devtlb));
            report.addScalar(prefix + "_pb_lookups",
                             static_cast<double>(probes.pb));
            report.addScalar(prefix + "_context_lookups",
                             static_cast<double>(probes.context));
            report.addScalar(prefix + "_iotlb_lookups",
                             static_cast<double>(probes.iotlb));
            report.addScalar(prefix + "_l2_lookups",
                             static_cast<double>(probes.l2));
            report.addScalar(prefix + "_l3_lookups",
                             static_cast<double>(probes.l3));
            report.addScalar(prefix + "_walks",
                             static_cast<double>(probes.walks));
            report.addScalar(prefix + "_iommu_requests",
                             static_cast<double>(
                                 probes.iommuRequests));
        }

        // Functional replay of the same trace: structure traffic
        // only, the probe-sensitive measurement (see FunctionalPath).
        double fn_wall = 0.0;
        uint64_t fn_translations = 0;
        uint64_t fn_walks = 0;
        uint64_t fn_lookups = 0;
        for (unsigned rep = 0; rep < opts.reps; ++rep) {
            core::SystemConfig cfg = core::SystemConfig::hypertrio();
            FunctionalPath path(cfg);
            const auto t0 = std::chrono::steady_clock::now();
            path.replay(trace);
            const double dt = wallSeconds(t0);
            fn_wall = rep == 0 ? dt : std::min(fn_wall, dt);

            HYPERSIO_ASSERT(path.translations() ==
                                trace.packets.size() * 3,
                            "functional replay translated %llu of "
                            "%llu requests",
                            (unsigned long long)path.translations(),
                            (unsigned long long)(trace.packets.size() *
                                                 3));
            if (rep == 0) {
                fn_translations = path.translations();
                fn_walks = path.walks();
                fn_lookups = path.devtlbLookups() +
                             path.pbLookups() + path.iotlbLookups() +
                             path.l2Lookups() + path.l3Lookups();
            } else {
                HYPERSIO_ASSERT(path.walks() == fn_walks,
                                "functional probe counts drifted "
                                "across reps");
            }
        }
        const double fn_pps = bench::perSecond(packets, fn_wall);
        std::printf("%-16s %12.0f   (functional replay, %llu probes)\n",
                    name, fn_pps, (unsigned long long)fn_lookups);
        total_fn_packets += packets;
        total_fn_wall += fn_wall;
        report.addScalar(prefix + "_functional_packets_per_sec",
                         fn_pps);
        report.addScalar(prefix + "_functional_translations",
                         static_cast<double>(fn_translations));
        report.addScalar(prefix + "_functional_walks",
                         static_cast<double>(fn_walks));
        report.addScalar(prefix + "_functional_probe_lookups",
                         static_cast<double>(fn_lookups));

        // Walk storm: every probe on the flat-map structures under
        // tenant-lifecycle churn (the gated measurement, see
        // WalkStorm). The visit schedule is deterministic and built
        // once, outside the timed region.
        const std::vector<WalkStorm::Window> schedule =
            WalkStorm::makeSchedule(trace);
        double ws_wall = 0.0;
        uint64_t ws_walks = 0;
        uint64_t ws_mapped = 0;
        uint64_t ws_detaches = 0;
        for (unsigned rep = 0; rep < opts.reps; ++rep) {
            core::SystemConfig cfg = core::SystemConfig::hypertrio();
            WalkStorm storm(cfg);
            const auto t0 = std::chrono::steady_clock::now();
            storm.replay(schedule);
            const double dt = wallSeconds(t0);
            ws_wall = rep == 0 ? dt : std::min(ws_wall, dt);

            HYPERSIO_ASSERT(storm.walks() ==
                                trace.packets.size() * 3,
                            "walk storm performed %llu of %llu "
                            "walks",
                            (unsigned long long)storm.walks(),
                            (unsigned long long)(trace.packets.size() *
                                                 3));
            if (rep == 0) {
                ws_walks = storm.walks();
                ws_mapped = storm.mapped();
                ws_detaches = storm.detaches();
            } else {
                HYPERSIO_ASSERT(storm.mapped() == ws_mapped &&
                                    storm.detaches() == ws_detaches,
                                "walk-storm results drifted across "
                                "reps");
            }
        }
        const double ws_pps = bench::perSecond(packets, ws_wall);
        std::printf("%-16s %12.0f   (walk storm, %llu walks)\n",
                    name, ws_pps, (unsigned long long)ws_walks);
        total_ws_packets += packets;
        total_ws_wall += ws_wall;
        report.addScalar(prefix + "_walkstorm_packets_per_sec",
                         ws_pps);
        report.addScalar(prefix + "_walkstorm_walks",
                         static_cast<double>(ws_walks));
        report.addScalar(prefix + "_walkstorm_mapped_walks",
                         static_cast<double>(ws_mapped));
        report.addScalar(prefix + "_walkstorm_detaches",
                         static_cast<double>(ws_detaches));
    }

    const double total_pps =
        bench::perSecond(total_packets, total_wall);
    const double total_fn_pps =
        bench::perSecond(total_fn_packets, total_fn_wall);
    std::printf("total: %llu packets in %.2f s = %.0f packets/s "
                "(timed), %.0f packets/s (functional)\n",
                (unsigned long long)total_packets, total_wall,
                total_pps, total_fn_pps);

    // Probe-backend identity: width is the layout contract (always
    // 16, even scalar); simd_probes records whether a vector unit
    // actually backs the group compares. Gate 6 diffs the counts of
    // a simd_probes=1 and a simd_probes=0 build — they must be
    // bit-identical, rates aside.
    report.addScalar("probe_group_width",
                     static_cast<double>(util::simd::GroupWidth));
    report.addScalar(
        "simd_probes",
        std::strcmp(util::simd::DefaultGroupOps::name, "scalar")
            ? 1.0
            : 0.0);
    report.addScalar("total_packets",
                     static_cast<double>(total_packets));
    report.addScalar("total_packets_per_sec", total_pps);
    report.addScalar("total_functional_packets_per_sec",
                     total_fn_pps);
    const double total_ws_pps =
        bench::perSecond(total_ws_packets, total_ws_wall);
    std::printf("walk storm total: %.0f packets/s\n", total_ws_pps);
    report.addScalar("total_walkstorm_packets_per_sec",
                     total_ws_pps);
    report.write(wallSeconds(wall0));
    return 0;
}
