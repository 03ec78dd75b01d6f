#include "tracer.hh"

#include <algorithm>
#include <utility>

#include "util/json.hh"

namespace perfbench
{

namespace trace = hypersio::trace;

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int p = spans[i].parent;
        if (p >= 0 && static_cast<size_t>(p) < spans.size())
            children[static_cast<size_t>(p)].push_back(i);
    }

    std::vector<int64_t> self(spans.size(), 0);
    std::vector<std::pair<int64_t, int64_t>> intervals;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &parent = spans[i];
        int64_t covered = 0;
        intervals.clear();
        for (size_t c : children[i]) {
            const Span &child = spans[c];
            if (child.aggregate) {
                covered += child.busyNs;
                continue;
            }
            const int64_t lo = std::max(child.startNs, parent.startNs);
            const int64_t hi = std::min(child.endNs, parent.endNs);
            if (lo < hi)
                intervals.emplace_back(lo, hi);
        }
        // Union of the clipped child intervals.
        std::sort(intervals.begin(), intervals.end());
        int64_t run_lo = 0, run_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : intervals) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            covered += run_hi - run_lo;
        self[i] = std::max<int64_t>(0, parent.busy() - covered);
    }
    return self;
}

int
Tracer::open(std::string name, uint32_t op, int parent)
{
    Span span;
    span.name = std::move(name);
    span.op = op;
    span.parent = parent;
    span.startNs = now();
    span.endNs = span.startNs;
    return add(std::move(span));
}

void
Tracer::close(int id)
{
    setEnd(id, now());
}

int
Tracer::add(Span span)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(std::move(span));
    return static_cast<int>(_spans.size() - 1);
}

void
Tracer::setStart(int id, int64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _spans.at(static_cast<size_t>(id)).startNs = ns;
}

void
Tracer::setEnd(int id, int64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _spans.at(static_cast<size_t>(id)).endNs = ns;
}

void
Tracer::setBusy(int id, int64_t ns)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _spans.at(static_cast<size_t>(id)).busyNs = ns;
}

std::vector<Span>
Tracer::spans() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    const std::vector<int64_t> self = selfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        hypersio::json::Writer w(os, 0);
        w.beginObject();
        w.key("id");
        w.value(static_cast<uint64_t>(i));
        w.key("name");
        w.value(s.name);
        w.key("op");
        w.value(s.op);
        w.key("parent");
        w.value(static_cast<int64_t>(s.parent));
        w.key("start_ns");
        w.value(s.startNs);
        w.key("end_ns");
        w.value(s.endNs);
        w.key("busy_ns");
        w.value(s.busy());
        w.key("self_ns");
        w.value(self[i]);
        w.endObject();
        os << '\n';
    }
}

TracedStream::TracedStream(std::unique_ptr<trace::PacketStream> inner,
                           Tracer &tracer, int run_span,
                           int stream_span)
    : _inner(std::move(inner)), _tracer(tracer), _runSpan(run_span),
      _streamSpan(stream_span)
{}

void
TracedStream::charge(int64_t start) const
{
    _busyNs += _tracer.now() - start;
}

void
TracedStream::markStart(int64_t ns)
{
    if (_started)
        return;
    _started = true;
    _tracer.setStart(_runSpan, ns);
    _tracer.setStart(_streamSpan, ns);
}

const trace::PacketRecord *
TracedStream::peek()
{
    const int64_t start = _tracer.now();
    markStart(start);
    const trace::PacketRecord *pkt = _inner->peek();
    charge(start);
    return pkt;
}

const trace::PageOp *
TracedStream::ops() const
{
    const int64_t start = _tracer.now();
    const trace::PageOp *ops = _inner->ops();
    charge(start);
    return ops;
}

void
TracedStream::advance()
{
    const int64_t start = _tracer.now();
    _inner->advance();
    charge(start);
}

bool
TracedStream::exhausted()
{
    const int64_t start = _tracer.now();
    markStart(start);
    const bool done = _inner->exhausted();
    charge(start);
    if (done && !_ended) {
        _ended = true;
        const int64_t end = _tracer.now();
        _tracer.setEnd(_runSpan, end);
        _tracer.setEnd(_streamSpan, end);
    }
    return done;
}

uint32_t
TracedStream::numTenants() const
{
    const int64_t start = _tracer.now();
    const uint32_t n = _inner->numTenants();
    charge(start);
    return n;
}

void
TracedStream::drainDetached(std::vector<trace::SourceId> &out)
{
    const int64_t start = _tracer.now();
    _inner->drainDetached(out);
    charge(start);
}

void
TracedStream::sidRetired(trace::SourceId sid)
{
    const int64_t start = _tracer.now();
    _inner->sidRetired(sid);
    charge(start);
}

void
TracedStream::finish()
{
    const int64_t now = _tracer.now();
    markStart(now);
    if (!_ended) {
        _ended = true;
        _tracer.setEnd(_runSpan, now);
        _tracer.setEnd(_streamSpan, now);
    }
    _tracer.setBusy(_streamSpan, _busyNs);
}

} // namespace perfbench
