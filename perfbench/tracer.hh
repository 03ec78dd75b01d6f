/**
 * @file
 * The benchmark's span tracer.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into each layer of the library: the set-up calls, each
 * System::run or shard, each dumpStatsJson, every packet-stream pull
 * (through TracedStream) and the snapshot hook. Nothing under src/
 * is instrumented. Spans stay in memory and are written when the
 * run ends.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "trace/stream.hh"

namespace perfbench
{

/** One traced interval. Spans of one point or shard share `op`. */
struct Span
{
    std::string name;
    uint32_t op = 0;
    int parent = -1; ///< index of the causing span; -1 = root
    int64_t startNs = 0;
    int64_t endNs = 0;
    /**
     * An aggregate span folds many short calls (stream pulls) into
     * one record: its interval runs from the first call to the last,
     * and busyNs is the time actually spent inside the calls. It
     * covers busyNs of its parent, not its interval.
     */
    bool aggregate = false;
    int64_t busyNs = 0;

    /** Time the span's own layer was busy. */
    int64_t busy() const
    {
        return aggregate ? busyNs : endNs - startNs;
    }
};

/**
 * Self time of every span: its busy time minus the part its direct
 * children cover. Interval children cover the union of their
 * intervals clipped to the parent's; aggregate children cover their
 * busy time. Never negative.
 */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

/** Thread-safe in-memory span store on one steady-clock epoch. */
class Tracer
{
  public:
    Tracer() : _epoch(std::chrono::steady_clock::now()) {}

    /** Nanoseconds since the tracer was created. */
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - _epoch)
            .count();
    }

    /** Opens an interval span starting now; returns its index. */
    int open(std::string name, uint32_t op, int parent);
    /** Ends span `id` now. */
    void close(int id);
    /** Stores a complete span; returns its index. */
    int add(Span span);
    void setStart(int id, int64_t ns);
    void setEnd(int id, int64_t ns);
    void setBusy(int id, int64_t ns);

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    std::chrono::steady_clock::time_point _epoch;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
};

/** Writes one JSON object per span and line, with its self time. */
void writeSpans(std::ostream &os, const std::vector<Span> &spans);

/** Interval span over a scope; does nothing with a null tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, uint32_t op,
               int parent)
        : _tracer(tracer),
          _id(tracer ? tracer->open(name, op, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (_tracer)
            _tracer->close(_id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return _id; }

  private:
    Tracer *_tracer;
    int _id;
};

/**
 * Forwarding PacketStream that times every call into the stream it
 * wraps. Its first pull opens the shard's run span and the first
 * exhausted() that returns true closes it; the time spent inside the
 * wrapped stream goes to an aggregate child span. The wrapper only
 * observes: every call and return value passes through unchanged.
 */
class TracedStream : public hypersio::trace::PacketStream
{
  public:
    /**
     * @param run_span interval span bounded by the first pull and
     *        exhaustion (the shard's run)
     * @param stream_span aggregate child of run_span that receives
     *        the time spent in `inner`
     */
    TracedStream(std::unique_ptr<hypersio::trace::PacketStream> inner,
                 Tracer &tracer, int run_span, int stream_span);

    const hypersio::trace::PacketRecord *peek() override;
    const hypersio::trace::PageOp *ops() const override;
    void advance() override;
    bool exhausted() override;
    uint32_t numTenants() const override;
    void
    drainDetached(std::vector<hypersio::trace::SourceId> &out) override;
    void sidRetired(hypersio::trace::SourceId sid) override;

    /**
     * Stores the busy total, and closes the run span now if the
     * stream never reported exhaustion. Call once the run is over.
     */
    void finish();

  private:
    /** Adds the time since `start` to the busy total. */
    void charge(int64_t start) const;
    void markStart(int64_t ns);

    std::unique_ptr<hypersio::trace::PacketStream> _inner;
    Tracer &_tracer;
    int _runSpan;
    int _streamSpan;
    bool _started = false;
    bool _ended = false;
    mutable int64_t _busyNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
