/**
 * @file
 * The assembled device–chipset–memory system and the trace runner
 * (HyperSIO's Performance Model, Section IV-C).
 *
 * The link model computes packet arrival times from the nominal
 * bandwidth and packet size; a packet that finds the PTB full is
 * dropped and retried at the next arrival slot. When the trace is
 * exhausted and all in-flight work drains, the achieved bandwidth is
 * total processed bytes divided by elapsed simulated time. Several
 * links may share one chipset (multi-host sharing, Fig. 1); each
 * runs this same arrival process.
 */

#ifndef HYPERSIO_CORE_SYSTEM_HH
#define HYPERSIO_CORE_SYSTEM_HH

#include <memory>
#include <optional>
#include <string>

#include <vector>

#include "cache/oracle_feed.hh"
#include "core/chipset.hh"
#include "core/config.hh"
#include "core/device.hh"
#include "core/run_results.hh"
#include "core/xlate_port.hh"
#include "iommu/iommu.hh"
#include "mem/memory_model.hh"
#include "trace/record.hh"
#include "trace/stream.hh"
#include "util/arena.hh"
#include "util/flat_map.hh"
#include "util/json.hh"

namespace hypersio::core
{

class System;

/** Options of a streaming run (System::runStream). */
struct StreamRunOptions
{
    /**
     * Retire detached tenants: erase their page tables, history,
     * and predictor state once every in-flight access drains, then
     * confirm sidRetired() to the stream. Off, a run behaves exactly
     * like run() over the equivalent materialized trace (state grows
     * with every tenant ever seen) — the golden equivalence mode.
     */
    bool evictDetached = true;

    /**
     * Interval-telemetry hook: onSnapshot(system, processed) fires
     * from the completion path each time another
     * `snapshotEveryPackets` packets have finished. The trigger is
     * simulated progress — never wall time — so capture points are
     * identical across runs, machines, and jobs counts. The callback
     * must treat the system as read-only (it runs between events of
     * the simulation it is observing); the snapshotting-vs-off
     * byte-identity test in tests/test_soak.cc holds runStream to
     * producing bit-identical results either way. 0 disables.
     */
    uint64_t snapshotEveryPackets = 0;
    std::function<void(const System &, uint64_t)> onSnapshot;

    /**
     * Invoked once at runStream() entry, on the thread that will run
     * the simulation — the hook for per-shard thread-local setup
     * (PanicContext repro lines, wall timers) when shards run on a
     * worker pool.
     */
    std::function<void(const System &)> onRunStart;
};

/**
 * One tenant retirement, stamped with the kernel's (tick, seq) key
 * at retirement time. Per-shard retirement logs are merged into a
 * deterministic global timeline by ShardedMultiSystem using
 * (tick, shard, seq, index) — the slab kernel's ordering rule.
 */
struct StreamRetirement
{
    Tick tick = 0;
    uint64_t seq = 0; ///< EventQueue::scheduledSeq() at retirement
    trace::SourceId sid = 0;

    bool operator==(const StreamRetirement &) const = default;
};

/**
 * One simulated system: N device links (one device each, as in the
 * paper's Fig. 1 multi-host sharing scenario) translating through one
 * shared chipset — event queue, memory model, page tables, and IOMMU
 * with its paging caches and walker. A single device is N = 1.
 *
 * Each link owns its Device, its PCIe port, its IOVA History Reader,
 * and the arrival process that feeds it from a PacketStream; tenant t
 * drives device t % N. Construct, then run() a trace or runStream() a
 * stream — once per System (state is not reset between runs; build a
 * fresh System per experiment point).
 *
 * Stats: an N = 1 system keeps the device under `system.device`; with
 * N > 1 each link's components live under `system.devN`.
 */
class System
{
  public:
    /**
     * @param num_devices device links sharing the chipset (>= 1;
     *        Oracle DevTLB replacement needs exactly one)
     */
    explicit System(const SystemConfig &config,
                    unsigned num_devices = 1);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Simulates the full trace and returns the results. Packets of
     * tenant t drive device t % N, in trace order. With N > 1 the
     * bandwidth is the sum over links and the utilization is taken
     * against N x the link rate.
     * @param bypass_translation "native" mode: packets complete at
     *        link rate without any address translation (used by the
     *        Fig. 5 motivation experiment)
     */
    RunResults run(const trace::HyperTrace &trace,
                   bool bypass_translation = false);

    /**
     * Simulates a lazily produced packet stream on a single-device
     * system. With eviction off and a stream mirroring a
     * materialized trace, the run is event-for-event identical to
     * run() on that trace (same RunResults, same stats tree). With
     * eviction on, tenants the stream detaches are fully retired —
     * page tables erased, cached translations invalidated, history
     * and predictor state dropped — keeping total state O(active
     * tenants) regardless of the tenant population.
     *
     * Not supported with Oracle DevTLB replacement (the Belady feed
     * needs the full trace up front).
     */
    RunResults runStream(trace::PacketStream &stream,
                         const StreamRunOptions &opts = {});

    /** Retirement log of the last runStream (merge rule input). */
    const std::vector<StreamRetirement> &streamRetirements() const
    {
        return _streamRetirements;
    }

    const SystemConfig &config() const { return _config; }

    unsigned numDevices() const
    {
        return static_cast<unsigned>(_links.size());
    }

    /** Dumps the full statistics tree of the last run. */
    void dumpStats(std::ostream &os) const;

    /** Same tree as JSON; indent 0 writes one compact line. */
    void dumpStatsJson(std::ostream &os, unsigned indent = 2) const;

    /** The statistics tree (JSON capture, tests). */
    const stats::StatGroup &statsRoot() const { return _stats; }

    /** Direct access for tests. */
    Device &device(unsigned d = 0) { return *_links[d]->device; }
    iommu::Iommu &iommuUnit() { return *_iommu; }
    sim::EventQueue &eventQueue() { return _queue; }
    /** Read-only queue access (snapshot callbacks read now()). */
    const sim::EventQueue &eventQueue() const { return _queue; }
    /** The run's functional page tables (shadow checking, tests). */
    const iommu::PageTableDirectory &tables() const { return _tables; }
    /** Device 0's history reader, if prefetching is on (tests). */
    const HistoryReader *historyReader() const
    {
        return _links.front()->historyReader.get();
    }

  private:
    /**
     * One device link: the device with its chipset-side port and
     * history reader, the stream feeding its arrival process, and
     * its completion counters. It is the device's completion sink,
     * so accept() needs no per-packet closure.
     */
    struct Link final : Device::CompletionSink
    {
        explicit Link(System &owner) : system(owner) {}
        // Callbacks in the event queue hold the link's address.
        Link(const Link &) = delete;
        Link &operator=(const Link &) = delete;

        void
        packetDone(const trace::PacketRecord &pkt) override
        {
            system.packetDone(*this, pkt);
        }

        System &system;
        /** `system` for N = 1, `system.devN` otherwise. */
        stats::StatGroup *stats = nullptr;
        std::unique_ptr<HistoryReader> historyReader;
        std::unique_ptr<XlatePort> xlatePort;
        std::unique_ptr<Device> device;

        /** The run's packet source (null outside a run). */
        trace::PacketStream *stream = nullptr;
        /**
         * Serialization slot of the stream's head packet, cached when
         * it becomes head: the head cannot change before advance(),
         * so drop slots re-arm without calling into the stream.
         */
        Tick headSlot = 0;
        /**
         * The arrival process, parked on `headSlot` while the PTB is
         * full: its drop slots cannot change anything until a PTB
         * entry frees, so they are counted, not dispatched.
         */
        sim::Ticker dropTicker;
        /** Stream ran dry awaiting retirements (arrivals stalled). */
        bool stalled = false;

        uint64_t processed = 0;
        uint64_t dropped = 0;
        uint64_t bytes = 0;
    };

    /**
     * The link arrival process — the only one. Admits the head
     * packet and re-arms after the head packet's serialization time,
     * or drops it when the PTB is full and parks until packetDone()
     * frees an entry (the packet retries every slot in between).
     */
    void arrive(Link &link);
    /** Runs every link's stream to exhaustion (shared by both runs). */
    RunResults drive(bool bypass_translation, uint64_t first_wire_bytes);
    /** The run-once guard shared by run() and runStream(). */
    void beginRun();
    /**
     * Device completion of one of `link`'s packets — the only place
     * a PTB entry frees, so it wakes a parked arrival process.
     */
    void packetDone(Link &link, const trace::PacketRecord &pkt);

    void applyOps(Link &link, const trace::PacketRecord &pkt,
                  const trace::PageOp *ops);
    void buildOracleFeed(const trace::HyperTrace &trace);
    /** Builds `link`'s device, wired to the chipset through its port. */
    void buildDevice(Link &link);
    /**
     * Sends a completed prefetch translation back to `link`'s device
     * over PCIe, with the per-DID wire counter and the device's
     * squash record maintained — shared by the History-Reader fill
     * path and the MMU-prefetch completion path.
     */
    void dispatchPrefetchFill(Link &link, mem::DomainId did,
                              mem::Iova iova, mem::PageSize size,
                              mem::Addr host_addr);
    uint64_t wireBytesOf(const trace::PacketRecord &pkt) const;
    /** Link occupancy of one packet (nominal slot if it rounds to 0). */
    Tick slotTicks(const trace::PacketRecord &pkt) const;
    /** Results from the link counters (shared by run/runStream). */
    RunResults collectResults(uint64_t first_wire_bytes);

    // ---- Streaming-run eviction machinery (N = 1) ----------------------
    /** Drains detach notices and retires every SID that can go. */
    void serviceRetirements();
    /**
     * Retires `sid` unless packets, prefetch bursts, or prefetch
     * fills are still in flight for it. @return true when retired
     */
    bool tryRetireSid(trace::SourceId sid);
    /** Tears down one domain through the regular unmap path. */
    void retireDomain(mem::DomainId did);
    /**
     * Re-arms a stalled link whose stream has a packet again.
     * @return true when the arrival process restarted
     */
    bool restartStalled(Link &link);

    SystemConfig _config;
    sim::EventQueue _queue;
    stats::StatGroup _stats;
    std::unique_ptr<mem::MemoryModel> _memory;
    iommu::PageTableDirectory _tables;
    std::unique_ptr<iommu::Iommu> _iommu;
    std::unique_ptr<cache::OracleFeed> _oracleFeed;
    std::vector<std::unique_ptr<Link>> _links;

    // Run state.
    bool _ran = false;
    bool _bypass = false;
    Tick _lastCompletion = 0;

    // Streaming-run state (runStream only; inert during run()).
    bool _evictStream = false;
    /** Snapshot cadence/hook of the active streaming run. */
    uint64_t _snapshotEvery = 0;
    std::function<void(const System &, uint64_t)> _onSnapshot;
    /** In-flight (accepted, not completed) packets per SID. */
    util::FlatMap<trace::SourceId, uint32_t> _outstanding;
    /** Detached SIDs awaiting retirement, in detach order. */
    std::vector<trace::SourceId> _pendingRetire;
    /** Prefetch fills on the PCIe wire per DID (retirement gate). */
    util::FlatMap<mem::DomainId, uint32_t> _fillsInFlight;
    /**
     * MMU prefetches between issue and IOMMU completion per DID
     * (retirement gate; entries erase at zero). The fill's return
     * hop is then covered by _fillsInFlight.
     */
    util::FlatMap<mem::DomainId, uint32_t> _mmuPrefetchesInFlight;
    std::vector<StreamRetirement> _streamRetirements;
    /**
     * Scratch for retirement transients (a retiring SID's sorted
     * domain list, a dying table's sorted page list). Retirement
     * retries on every completion while a tenant drains, so these
     * would otherwise be a heap round trip each attempt; the arena
     * reuses the same chunk run after run.
     */
    util::Arena _retireArena;
};

} // namespace hypersio::core

#endif // HYPERSIO_CORE_SYSTEM_HH
