#include "core/system.hh"

#include <algorithm>
#include <ostream>

#include "iommu/keys.hh"
#include "oracle/hooks.hh"
#include "util/logging.hh"

namespace hypersio::core
{

/**
 * Builds `link`'s device with its ports wired through PCIe latency on
 * each hop: demand path device → IOMMU → device (state pooled in the
 * link's XlatePort), prefetch path device → history reader (which
 * later fills back through its own callback).
 */
void
System::buildDevice(Link &link)
{
    DevicePorts ports;
    ports.translate = [port = link.xlatePort.get()](
                          mem::DomainId did, mem::Iova iova,
                          mem::PageSize size, bool may_fuse,
                          DevicePorts::ResponseFn done) {
        port->translate(did, iova, size, may_fuse, std::move(done));
    };
    if (link.historyReader) {
        ports.prefetch = [this, reader = link.historyReader.get()](
                             mem::DomainId did) {
            _queue.scheduleAfter(_config.pcieOneWay, [reader, did] {
                reader->prefetch(did);
            });
        };
    }
    if (_config.device.prefetch.enabled &&
        _config.device.prefetch.kind == PrefetchKind::MmuDma) {
        // MMU-aware prefetch: one predicted page crosses PCIe to the
        // chipset, translates through the regular (prefetch-tagged)
        // IOMMU path, and a valid result is dispatched back as a
        // prefetch fill. The pending counter gates streaming-run
        // retirement for the issue-to-completion window; the return
        // hop is then covered by the fill wire counter.
        ports.prefetchPage = [this, l = &link](mem::DomainId did,
                                               mem::Iova iova,
                                               mem::PageSize size) {
            ++_mmuPrefetchesInFlight[did];
            _queue.scheduleAfter(
                _config.pcieOneWay, [this, l, did, iova, size]() {
                    iommu::IommuRequest req;
                    req.domain = did;
                    req.iova = iova;
                    req.size = size;
                    req.prefetch = true;
                    _iommu->translate(
                        req,
                        [this, l, did, iova,
                         size](const iommu::IommuResponse &resp) {
                            uint32_t *pending =
                                _mmuPrefetchesInFlight.find(did);
                            HYPERSIO_ASSERT(
                                pending && *pending > 0,
                                "MMU prefetch completion without "
                                "a pending counter");
                            if (--*pending == 0)
                                _mmuPrefetchesInFlight.erase(did);
                            if (resp.valid) {
                                dispatchPrefetchFill(
                                    *l, did, iova, size,
                                    resp.hostAddr);
                            }
                        });
                });
        };
    }
    link.device = std::make_unique<Device>(
        _config.device, _queue, *link.stats, std::move(ports),
        _oracleFeed.get());
}

void
System::dispatchPrefetchFill(Link &link, mem::DomainId did,
                             mem::Iova iova, mem::PageSize size,
                             mem::Addr host_addr)
{
    ++_fillsInFlight[did];
    // The device records the fill as in flight now: an invalidate of
    // this page during the PCIe hop squashes the fill instead of
    // installing a stale translation.
    Device *device = link.device.get();
    device->prefetchFillDispatched(did, iova, size);
    _queue.scheduleAfter(
        _config.pcieOneWay,
        [this, device, did, iova, size, host_addr]() {
            uint32_t *wire = _fillsInFlight.find(did);
            HYPERSIO_ASSERT(wire && *wire > 0,
                            "prefetch fill without a wire counter");
            --*wire;
            device->prefetchFill(did, iova, size, host_addr);
        });
}

System::System(const SystemConfig &config, unsigned num_devices)
    : _config(config), _stats("system"), _tables(config.seed)
{
    if (num_devices == 0)
        fatal("a system needs at least one device");
    const bool belady =
        _config.device.devtlb.policy == cache::ReplPolicyKind::Oracle;
    if (belady && num_devices > 1)
        fatal("oracle DevTLB replacement is not supported in "
              "multi-device mode");

    // Runtime event-fusion knob; results are bit-identical either
    // way, so this only selects the kernel being measured.
    _queue.setFusionEnabled(_config.eventFusion);
    _memory = std::make_unique<mem::MemoryModel>(_config.memory,
                                                 _queue, _stats);
    _iommu = std::make_unique<iommu::Iommu>(
        _config.iommu, _queue, _stats, *_memory, _tables);

    _links.reserve(num_devices);
    for (unsigned d = 0; d < num_devices; ++d) {
        Link &link = *_links.emplace_back(std::make_unique<Link>(*this));
        link.stats = num_devices == 1
                         ? &_stats
                         : &_stats.child("dev" + std::to_string(d));
        if (_config.device.prefetch.enabled &&
            _config.device.prefetch.kind ==
                PrefetchKind::SidPredictor) {
            // The History Reader drives the paper's scheme; prefetch
            // completions return to this link's device via
            // dispatchPrefetchFill (the MmuDma mechanism has no
            // reader — its completions come straight from the IOMMU,
            // see buildDevice()).
            auto fill = [this, l = &link](mem::DomainId did,
                                          mem::Iova iova,
                                          mem::PageSize size,
                                          mem::Addr host_addr) {
                dispatchPrefetchFill(*l, did, iova, size, host_addr);
            };
            link.historyReader = std::make_unique<HistoryReader>(
                _config.device.prefetch, _queue, *link.stats, *_iommu,
                *_memory, std::move(fill));
        }
        link.xlatePort = std::make_unique<XlatePort>(
            _queue, *_iommu, link.historyReader.get(),
            _config.pcieOneWay);
        // With Belady replacement the device needs the
        // future-knowledge feed, which is only available once run()
        // sees the trace; the device is then built there.
        if (!belady)
            buildDevice(link);
    }
}

System::~System() = default;

void
System::buildOracleFeed(const trace::HyperTrace &trace)
{
    // Pre-pass: the DevTLB key sequence in lookup order (three
    // requests per packet, in Ring/Data/Notify order). Dropped
    // packets never reach the DevTLB, so the feed — advanced once
    // per performed lookup — stays aligned with the simulation.
    std::vector<uint64_t> keys;
    keys.reserve(trace.packets.size() * 3);
    for (const auto &pkt : trace.packets) {
        const mem::DomainId did =
        iommu::ContextCache::resolve(pkt.sid, pkt.pasid)
            .domain;
        for (unsigned c = 0; c < trace::NumReqClasses; ++c) {
            const auto cls = static_cast<trace::ReqClass>(c);
            keys.push_back(iommu::translationKey(
                did, pkt.iova(cls), pkt.pageSize(cls)));
        }
    }
    _oracleFeed = std::make_unique<cache::OracleFeed>(keys);
}

void
System::beginRun()
{
    HYPERSIO_ASSERT(!_ran, "a System may only run once");
    _ran = true;
}

RunResults
System::run(const trace::HyperTrace &trace, bool bypass_translation)
{
    beginRun();

    if (!_links.front()->device) {
        // Oracle-replacement run: build the feed, then the device.
        buildOracleFeed(trace);
        buildDevice(*_links.front());
    }

    if (trace.packets.empty()) {
        RunResults empty;
        empty.configName = _config.name;
        return empty;
    }

    // One stream per link over that link's share of the trace.
    const unsigned n = numDevices();
    std::vector<trace::MaterializedStream> streams;
    streams.reserve(n);
    for (unsigned d = 0; d < n; ++d) {
        streams.emplace_back(trace, n, d);
        _links[d]->stream = &streams.back();
    }
    return drive(bypass_translation,
                 wireBytesOf(trace.packets.front()));
}

RunResults
System::runStream(trace::PacketStream &stream,
                  const StreamRunOptions &opts)
{
    beginRun();
    if (numDevices() != 1)
        fatal("streaming runs drive a single device (this system "
              "has %u)",
              numDevices());

    // Fires before anything can panic so run-start hooks that
    // install PanicContext repro lines cover the whole run.
    if (opts.onRunStart)
        opts.onRunStart(*this);
    _snapshotEvery = opts.snapshotEveryPackets;
    _onSnapshot = opts.onSnapshot;

    if (!_links.front()->device) {
        fatal("streaming runs do not support Oracle DevTLB "
              "replacement (the Belady feed needs the full trace "
              "up front)");
    }

    const trace::PacketRecord *first = stream.peek();
    if (!first) {
        HYPERSIO_ASSERT(stream.exhausted(),
                        "stream stalled before its first packet");
        RunResults empty;
        empty.configName = _config.name;
        return empty;
    }

    _links.front()->stream = &stream;
    _evictStream = opts.evictDetached;
    return drive(/*bypass_translation=*/false, wireBytesOf(*first));
}

RunResults
System::drive(bool bypass_translation, uint64_t first_wire_bytes)
{
#ifdef HYPERSIO_CHECKED
    // Auto-install a fail-fast differential oracle for this run
    // unless one is already active on this thread (tests/fuzzing
    // install their own collecting checker) or auto-checking is
    // disabled (HYPERSIO_SHADOW=off). The oracle models one device,
    // so multi-device runs go unchecked.
    std::unique_ptr<oracle::ShadowChecker> auto_checker;
    std::optional<oracle::ShadowScope> shadow_scope;
    if (numDevices() == 1 && !bypass_translation &&
        !oracle::shadowChecker() && oracle::shadowAutoCheckEnabled()) {
        auto_checker = std::make_unique<oracle::ShadowChecker>(
            toShadowConfig(_config), &_tables, /*fail_fast=*/true);
        shadow_scope.emplace(*auto_checker);
    }
#endif

    _bypass = bypass_translation;
    for (const auto &link : _links) {
        if (const trace::PacketRecord *head = link->stream->peek()) {
            link->headSlot = slotTicks(*head);
            _queue.schedule(0, [this, l = link.get()] { arrive(*l); });
        }
    }

    for (;;) {
        _queue.run();
        if (!_evictStream)
            break;
        // Drained: every in-flight access is done, so anything still
        // pending must retire now (and may unpark the stream).
        serviceRetirements();
        HYPERSIO_ASSERT(_pendingRetire.empty(),
                        "tenants stuck awaiting retirement after "
                        "the queue drained");
        if (!restartStalled(*_links.front()))
            break;
    }
    for (const auto &link : _links) {
        HYPERSIO_ASSERT(link->stream->exhausted(),
                        "run ended with a stream unfinished");
        link->stream = nullptr;
    }

    if (numDevices() == 1) {
        const Device &device = *_links.front()->device;
        HYPERSIO_SHADOW(systemRunCompleted(
            bypass_translation, _links.front()->processed,
            device.translationsIssued(), device.devtlbOccupancy(),
            device.prefetchBufferOccupancy(),
            _iommu->iotlbOccupancy(), _iommu->l2Occupancy(),
            _iommu->l3Occupancy(), device.ptbInUse()));
    }

    return collectResults(first_wire_bytes);
}

void
System::arrive(Link &link)
{
    if (!_bypass && link.device->ptbFull()) {
        // Dropped; the same packet retries next slot. Nothing a drop
        // slot reads can change before packetDone() frees a PTB
        // entry, so the slots in between park. The exception is a
        // retirement still pending in eviction mode, which every drop
        // slot retries: those slots stay real events.
        ++link.dropped;
        if (_evictStream)
            serviceRetirements();
        const bool park = !_evictStream || _pendingRetire.empty();
        HYPERSIO_SHADOW(devicePacketDropped(park));
        if (park) {
            _queue.park(link.dropTicker, link.headSlot);
        } else {
            _queue.scheduleAfter(link.headSlot,
                                 [this, l = &link] { arrive(*l); });
        }
        return;
    }

    const trace::PacketRecord *head = link.stream->peek();
    HYPERSIO_ASSERT(head, "arrival fired without a packet");
    // Copy the record out: advance() invalidates peek().
    const trace::PacketRecord pkt = *head;
    if (_bypass) {
        // Native mode: no address translation at all.
        link.stream->advance();
        packetDone(link, pkt);
    } else {
        applyOps(link, pkt, link.stream->ops());
        if (_evictStream)
            ++_outstanding[pkt.sid];
        link.stream->advance();
        link.device->accept(pkt, link);
    }
    if (_evictStream)
        serviceRetirements();

    // The next packet arrives after it has serialized onto the wire
    // (packets with an explicit wire size take their own time).
    // A stream that runs dry while tenants await retirement
    // (ChurnStream parked on a full SID space) parks the process;
    // retirement completions re-arm it through restartStalled().
    if (const trace::PacketRecord *next = link.stream->peek()) {
        link.headSlot = slotTicks(*next);
        _queue.scheduleAfter(link.headSlot,
                             [this, l = &link] { arrive(*l); });
    } else if (!link.stream->exhausted()) {
        link.stalled = true;
    }
}

void
System::packetDone(Link &link, const trace::PacketRecord &pkt)
{
    if (link.dropTicker.parked()) {
        const uint64_t skipped = _queue.unpark(
            link.dropTicker, [this, l = &link] { arrive(*l); });
        link.dropped += skipped;
        HYPERSIO_SHADOW(devicePacketsDropped(skipped));
    }
    ++link.processed;
    link.bytes += wireBytesOf(pkt);
    _lastCompletion = _queue.now();
    // Streaming-run bookkeeping; _evictStream is never set by run().
    if (_evictStream) {
        uint32_t *count = _outstanding.find(pkt.sid);
        HYPERSIO_ASSERT(count && *count > 0,
                        "packet completion without an outstanding "
                        "counter");
        --*count;
        serviceRetirements();
        restartStalled(link);
    }
    // After retirement bookkeeping, so a capture at this boundary
    // sees the stats with this completion fully applied.
    if (_snapshotEvery != 0 && link.processed % _snapshotEvery == 0 &&
        _onSnapshot) {
        _onSnapshot(*this, link.processed);
    }
}

uint64_t
System::wireBytesOf(const trace::PacketRecord &pkt) const
{
    return pkt.wireBytes != 0 ? pkt.wireBytes
                              : _config.link.packetBytes;
}

Tick
System::slotTicks(const trace::PacketRecord &pkt) const
{
    const Tick ser =
        serializationTicks(wireBytesOf(pkt), _config.link.gbps);
    return ser == 0 ? _config.link.packetInterval() : ser;
}

RunResults
System::collectResults(uint64_t first_wire_bytes)
{
    RunResults results;
    results.configName = _config.name;
    // The first packet occupies the wire for one serialization
    // interval before its arrival event; include it so a perfectly
    // translated run reports exactly the nominal link rate.
    results.elapsed =
        _lastCompletion +
        serializationTicks(first_wire_bytes, _config.link.gbps);

    uint64_t devtlb_hits = 0;
    uint64_t devtlb_lookups = 0;
    uint64_t pb_hits = 0;
    double latency_mean = 0.0;
    double latency_weighted = 0.0; ///< sum of device mean x packets
    for (const auto &link : _links) {
        const Device &device = *link->device;
        results.packetsProcessed += link->processed;
        results.packetsDropped += link->dropped;
        results.translations += device.translationsIssued();
        // Links run side by side: the aggregate is the sum of each
        // link's bandwidth over the common elapsed time.
        results.achievedGbps +=
            achievedGbps(link->bytes, results.elapsed);
        devtlb_hits += device.devtlbStats().hits;
        devtlb_lookups += device.devtlbStats().lookups;
        pb_hits += device.pbHits();
        const auto *lat =
            link->stats->child("device").find("packet_latency_ns");
        latency_mean = lat ? lat->value() : 0.0;
        latency_weighted +=
            latency_mean * static_cast<double>(link->processed);
    }
    results.utilization =
        results.achievedGbps / (_config.link.gbps * numDevices());

    results.devtlbHitRate =
        devtlb_lookups == 0
            ? 0.0
            : static_cast<double>(devtlb_hits) /
                  static_cast<double>(devtlb_lookups);
    results.pbHitRate =
        results.translations == 0
            ? 0.0
            : static_cast<double>(pb_hits) /
                  static_cast<double>(results.translations);
    const auto &iotlb = _iommu->iotlbStats();
    results.iotlbHitRate =
        iotlb.lookups == 0
            ? 0.0
            : static_cast<double>(iotlb.hits) /
                  static_cast<double>(iotlb.lookups);

    const auto *walks = _stats.child("iommu").find("walks");
    results.walks = walks ? static_cast<uint64_t>(walks->value()) : 0;
    const auto *reqs = _stats.child("iommu").find("requests");
    results.iommuRequests =
        reqs ? static_cast<uint64_t>(reqs->value()) : 0;
    // One device reports its own mean as is; N devices report the
    // packet-weighted mean of theirs.
    if (numDevices() == 1)
        results.avgPacketLatencyNs = latency_mean;
    else if (results.packetsProcessed != 0)
        results.avgPacketLatencyNs =
            latency_weighted /
            static_cast<double>(results.packetsProcessed);
    return results;
}

void
System::applyOps(Link &link, const trace::PacketRecord &pkt,
                 const trace::PageOp *ops)
{
    const mem::DomainId did =
        iommu::ContextCache::resolve(pkt.sid, pkt.pasid)
            .domain;
    for (uint16_t i = 0; i < pkt.opCount; ++i) {
        const trace::PageOp &op = ops[i];
        mem::PageTable &table = _tables.get(did);
        if (op.isMap) {
            table.map(op.pageBase, op.size);
        } else {
            table.unmap(op.pageBase);
            // Invalidate every cached copy of the dying translation:
            // device TLB, prefetch buffer, and chipset IOTLB. Only
            // this link's device serves the tenant.
            link.device->invalidatePage(did, op.pageBase, op.size);
            _iommu->invalidate(did, op.pageBase, op.size);
            HYPERSIO_SHADOW(
                systemUnmapped(did, op.pageBase, op.size));
        }
    }
}

void
System::serviceRetirements()
{
    _links.front()->stream->drainDetached(_pendingRetire);
    if (_pendingRetire.empty())
        return;
    // Retire what can go; keep the rest in detach order. A SID may
    // stay parked across many slots while its packets, prefetch
    // bursts, or fills drain — retrying here every arrival and every
    // completion keeps the latency O(in-flight work), not O(stream).
    size_t keep = 0;
    for (size_t i = 0; i < _pendingRetire.size(); ++i) {
        if (!tryRetireSid(_pendingRetire[i]))
            _pendingRetire[keep++] = _pendingRetire[i];
    }
    _pendingRetire.resize(keep);
}

bool
System::tryRetireSid(trace::SourceId sid)
{
    // Gate 1: every accepted packet of the SID has completed.
    if (const uint32_t *count = _outstanding.find(sid);
        count && *count > 0) {
        return false;
    }

    // The SID's domains (one per PASID the tenant used). Directory
    // iteration order is unspecified; sort for determinism. The
    // list lives in the retirement arena: this function reruns on
    // every completion while the tenant drains.
    const util::Arena::Scope scratch(_retireArena);
    auto *dids = _retireArena.allocArray<mem::DomainId>(
        _tables.size());
    size_t ndids = 0;
    _tables.forEachDomain([&](const mem::DomainId &did) {
        if (iommu::ContextCache::sidOf(did) == sid)
            dids[ndids++] = did;
    });
    std::sort(dids, dids + ndids);

    const HistoryReader *reader = historyReader();
    for (size_t i = 0; i < ndids; ++i) {
        const mem::DomainId did = dids[i];
        // Gate 2: no history-reader prefetch burst in flight.
        if (reader && reader->prefetchInFlight(did))
            return false;
        // Gate 3: no prefetched translation on the PCIe wire.
        if (const uint32_t *wire = _fillsInFlight.find(did);
            wire && *wire > 0) {
            return false;
        }
        // Gate 4: no MMU prefetch between issue and its IOMMU
        // completion (after which the fill rides Gate 3's wire).
        if (const uint32_t *pending = _mmuPrefetchesInFlight.find(did);
            pending && *pending > 0) {
            return false;
        }
    }

    for (size_t i = 0; i < ndids; ++i)
        retireDomain(dids[i]);
    Link &link = *_links.front();
    link.device->retireSid(sid);
    _streamRetirements.push_back(
        {_queue.now(), _queue.scheduledSeq(), sid});
    link.stream->sidRetired(sid);
    return true;
}

void
System::retireDomain(mem::DomainId did)
{
    // Unmap every live page through the regular driver-unmap path so
    // all cached translations (DevTLB, PB, IOTLB) and the shadow
    // mirrors retire in lock-step, then drop the table and the
    // chipset's access history. Mapping iteration order is
    // unspecified; sort for determinism.
    Link &link = *_links.front();
    mem::PageTable *table = _tables.findExisting(did);
    HYPERSIO_ASSERT(table, "retiring a domain without a table");
    using PageRef = std::pair<mem::Iova, mem::PageSize>;
    const util::Arena::Scope scratch(_retireArena);
    auto *pages = _retireArena.allocArray<PageRef>(table->size());
    size_t npages = 0;
    table->forEachMapping(
        [&](mem::Iova base, mem::PageSize size) {
            pages[npages++] = {base, size};
        });
    std::sort(pages, pages + npages);
    for (size_t i = 0; i < npages; ++i) {
        const auto [base, size] = pages[i];
        table->unmap(base);
        link.device->invalidatePage(did, base, size);
        _iommu->invalidate(did, base, size);
        HYPERSIO_SHADOW(systemUnmapped(did, base, size));
    }
    _tables.erase(did);
    if (link.historyReader)
        link.historyReader->retire(did);
    link.device->retireDomain(did);
}

bool
System::restartStalled(Link &link)
{
    if (!link.stalled)
        return false;
    const trace::PacketRecord *head = link.stream->peek();
    if (!head)
        return false;
    link.stalled = false;
    link.headSlot = slotTicks(*head);
    _queue.scheduleAfter(_config.link.packetInterval(),
                         [this, l = &link] { arrive(*l); });
    return true;
}

void
System::dumpStats(std::ostream &os) const
{
    _stats.dump(os);
}

void
System::dumpStatsJson(std::ostream &os, unsigned indent) const
{
    stats::writeJson(_stats, os, indent);
}

void
writeRunResultsJson(json::Writer &w, const RunResults &r)
{
    w.beginObject();
    w.key("config");
    w.value(r.configName);
    w.key("packets_processed");
    w.value(r.packetsProcessed);
    w.key("packets_dropped");
    w.value(r.packetsDropped);
    w.key("translations");
    w.value(r.translations);
    w.key("elapsed_ticks");
    w.value(r.elapsed);
    w.key("achieved_gbps");
    w.value(r.achievedGbps);
    w.key("utilization");
    w.value(r.utilization);
    w.key("devtlb_hit_rate");
    w.value(r.devtlbHitRate);
    w.key("pb_hit_rate");
    w.value(r.pbHitRate);
    w.key("iotlb_hit_rate");
    w.value(r.iotlbHitRate);
    w.key("walks");
    w.value(r.walks);
    w.key("iommu_requests");
    w.value(r.iommuRequests);
    w.key("avg_packet_latency_ns");
    w.value(r.avgPacketLatencyNs);
    w.endObject();
}

} // namespace hypersio::core
