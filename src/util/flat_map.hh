/**
 * @file
 * Open-addressing hash map for the translation hot path.
 *
 * Every per-tenant metadata structure the simulator probes per
 * translation (page-table mappings, the page-table directory, the
 * IOMMU MSHR, the prefetcher's per-DID history, the SID-predictor
 * table) used to be a `std::unordered_map`: one heap node per entry,
 * a pointer chase per probe, and an allocation per insert. FlatMap
 * replaces them with a single open-addressed table:
 *
 *   - power-of-two capacity, so the bucket of a key is one Fibonacci
 *     multiply plus a shift (no integer division);
 *   - linear probing over a dense 1-byte tag array (0 for an empty
 *     slot, otherwise a marker bit plus seven hash bits), with the
 *     keys and values packed together in a parallel array touched
 *     only when a tag matches. A miss therefore resolves inside a
 *     single tag cache line, and a hit costs that line plus one
 *     key/value line — which matters when thousands of per-tenant
 *     maps are probed in interleaved (cold-cache) packet order;
 *   - the probe loop compares a whole 16-slot group of tags at a
 *     time through util/simd.hh (SSE2/NEON, scalar fallback): after
 *     a one-slot fast path for the overwhelmingly common
 *     hit-at-home / empty-at-home cases, collision chains and erase
 *     scans resolve in one group compare instead of a byte loop.
 *     The group backend only produces candidate masks — every
 *     decision is made from the masks in slot order — so the table's
 *     layout and every observable result are bit-identical across
 *     backends (scripts/check_repo.sh gate 6 enforces this);
 *   - the tag array is the only zero-initialized storage: the
 *     key/value array is allocated default-initialized, so growing a
 *     table never memsets the (much larger) payload — the cost that
 *     otherwise dominates tenant-attach storms;
 *   - tombstone-free deletion by backward shifting, so probe chains
 *     never accumulate dead slots and lookup cost stays bounded by
 *     the live load factor;
 *   - `reserve(n)` guarantees: no rehash — and therefore no pointer
 *     or reference invalidation — for the next `n - size()` inserts.
 *
 * Determinism: the memory layout is a pure function of the insert /
 * erase sequence, and nothing on the simulation path depends on
 * iteration order (forEach exists for tests and teardown only, and
 * its order is explicitly unspecified).
 *
 * Requirements on K/V: K is an integral (or enum) type no wider than
 * 64 bits; V is default-constructible and move-assignable. Erasing a
 * non-trivial V assigns `V()` into the vacated slot so resources
 * release eagerly.
 */

#ifndef HYPERSIO_UTIL_FLAT_MAP_HH
#define HYPERSIO_UTIL_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/simd.hh"

namespace hypersio::util
{

/**
 * Open-addressing map from an integral key to V (see file header).
 *
 * `Ops` selects the 16-wide group-probe backend (util/simd.hh). The
 * default is the build's best backend; tests instantiate the scalar
 * reference explicitly to prove layout equivalence.
 */
template <typename K, typename V,
          typename Ops = simd::DefaultGroupOps>
class FlatMap
{
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "FlatMap keys must be integral");
    static_assert(sizeof(K) <= sizeof(uint64_t),
                  "FlatMap keys must fit in 64 bits");

  public:
    FlatMap() = default;

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    /** Allocated slots (power of two; 0 before the first insert). */
    size_t capacity() const { return _capacity; }

    /**
     * Ensures `n` total entries fit without growing. Until size()
     * exceeds `n`, inserts never rehash, so pointers returned by
     * find()/operator[]/tryEmplace() stay valid (erase of *other*
     * keys may still move entries via backward shift).
     */
    void
    reserve(size_t n)
    {
        const size_t needed = capacityFor(n);
        if (needed > _capacity)
            rehash(needed);
    }

    /** Pointer to the value of `key`, or nullptr when absent. */
    V *
    find(K key)
    {
        const size_t slot = findSlot(key);
        return slot == NoSlot ? nullptr : &_kv[slot].value;
    }

    const V *
    find(K key) const
    {
        const size_t slot = findSlot(key);
        return slot == NoSlot ? nullptr : &_kv[slot].value;
    }

    bool contains(K key) const { return findSlot(key) != NoSlot; }

    /**
     * Inserts a default-constructed value for `key` when absent.
     * @return {value pointer, true when newly inserted}
     */
    std::pair<V *, bool>
    tryEmplace(K key)
    {
        if (_size + 1 > _growAt)
            rehash(capacityFor(_size + 1));
        const uint64_t h = mix(key);
        const Probe p = probeSlot(h, key);
        if (p.found)
            return {&_kv[p.slot].value, false};
        _tags[p.slot] = tagOf(h);
        _kv[p.slot].key = key;
        _kv[p.slot].value = V();
        ++_size;
        return {&_kv[p.slot].value, true};
    }

    /** The value of `key`, default-constructed on first access. */
    V &operator[](K key) { return *tryEmplace(key).first; }

    /** Inserts or overwrites key → value. @return true if inserted */
    bool
    insert(K key, V value)
    {
        auto [v, inserted] = tryEmplace(key);
        *v = std::move(value);
        return inserted;
    }

    /**
     * Removes `key` by backward shifting the tail of its probe
     * chain, leaving no tombstone. @return true when removed.
     */
    bool
    erase(K key)
    {
        size_t hole = findSlot(key);
        if (hole == NoSlot)
            return false;
        eraseSlot(hole);
        return true;
    }

    /**
     * Removes `key`, moving its value into `out` instead of
     * destroying it. One probe total — callers that recycle the
     * evicted value's storage (tenant-table pooling) would otherwise
     * pay find() + erase(). @return true when the key existed.
     */
    bool
    extract(K key, V &out)
    {
        size_t hole = findSlot(key);
        if (hole == NoSlot)
            return false;
        out = std::move(_kv[hole].value);
        eraseSlot(hole);
        return true;
    }

    /** Removes every entry; keeps the allocation. */
    void
    clear()
    {
        for (size_t s = 0; s < _capacity; ++s) {
            if (_tags[s]) {
                _tags[s] = 0;
                releaseSlot(s);
            }
        }
        _size = 0;
    }

    /**
     * Visits every entry as fn(key, value&). Iteration order is
     * unspecified — never call this on the simulation path.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t s = 0; s < _capacity; ++s)
            if (_tags[s])
                fn(_kv[s].key, _kv[s].value);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t s = 0; s < _capacity; ++s)
            if (_tags[s])
                fn(_kv[s].key, _kv[s].value);
    }

  private:
    static constexpr size_t NoSlot = SIZE_MAX;
    static constexpr size_t MinCapacity = 64;

    /** Key and value packed so a tag match costs one more line. */
    struct KV
    {
        K key;
        V value;
    };

    /**
     * Smallest power-of-two capacity holding `n` at <= 1/2 load.
     * Group-wide tag probes changed the old 1/4 calculus: a probe
     * rejects 16 slots per compare, so the shorter chains a 1/4
     * ceiling buys no longer pay for the doubled memory footprint
     * and the extra rehash step (measured ~4% on the translation
     * microbench, walk-heavy patterns). The floor of 64 slots means
     * typical per-tenant tables — a handful of pages — never rehash:
     * one tag allocation plus one key/value allocation for the
     * table's whole lifetime.
     */
    static size_t
    capacityFor(size_t n)
    {
        size_t cap = MinCapacity;
        while (n * 2 > cap)
            cap <<= 1;
        return cap;
    }

    /**
     * Fibonacci (multiplicative) hash: one multiply whose top bits
     * are well mixed even for the simulator's structured keys (page
     * bases and small dense IDs). The bucket reads the *top*
     * log2(capacity) bits, so one multiply plus one shift replaces
     * the three-multiply SplitMix finalizer — the mix sits on every
     * probe's critical path, so its latency is most of a warm
     * probe's cost.
     */
    static uint64_t
    mix(K key)
    {
        return static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    }

    /**
     * Occupied-slot tag: the marker bit plus seven hash bits taken
     * from the *low* end of the mix, folded with bits 32–38. The
     * bucket index reads the top log2(capacity) bits, so low bits
     * stay disjoint from it at every reachable capacity — the old
     * bits 40–46 collided with the bucket index from 2^17 slots up
     * (hyperscale directory/MSHR territory), making the tag a pure
     * function of the in-bucket position and gutting its rejection
     * power. The fold matters too: page-base keys have zero low
     * bits, so the low 7 product bits alone would be constant; XORing
     * in well-mixed middle bits keeps 7 bits of entropy for every
     * key shape. A probe only touches the key/value array when all
     * eight bits match, so ~99% of colliding slots are rejected from
     * the tag line alone.
     */
    static uint8_t
    tagOf(uint64_t h)
    {
        return uint8_t((h ^ (h >> 32)) & 0x7f) | 0x80;
    }

    size_t next(size_t slot) const { return (slot + 1) & _mask; }

    /** Outcome of walking a key's probe chain: the key's slot when
     *  found, else the first empty slot (the insert position). */
    struct Probe
    {
        size_t slot;
        bool found;
    };

    /**
     * Walks the probe chain of `h` in slot order. A one-slot fast
     * path answers the dominant cases (key at its home slot, or home
     * slot empty); otherwise tags are compared a 16-slot group at a
     * time. Groups are position-aligned windows of the tag array
     * (capacity is a power of two >= 64, so groups never straddle
     * the wrap), the first group masks off lanes before the home
     * slot, and candidates are checked strictly before the group's
     * first empty lane — exactly the order and termination of a
     * one-slot-at-a-time scan, for any backend.
     */
    Probe
    probeSlot(uint64_t h, K key) const
    {
        const uint8_t tag = tagOf(h);
        const uint8_t *tags = _tags.data();
        const KV *kv = _kv.get();
        const size_t home = h >> _shift;
        if (tags[home] == tag && kv[home].key == key)
            return {home, true};
        if (tags[home] == 0)
            return {home, false};
        size_t group = home & ~(simd::GroupWidth - 1);
        uint32_t lanes = (~uint32_t(0) << (home - group)) & 0xffffu;
        for (;;) {
            const uint32_t empty = Ops::zeroMask(tags + group) & lanes;
            // Only lanes before the first empty slot are on the
            // probe chain; the chain ends there.
            const uint32_t chain =
                empty ? (empty & (~empty + 1)) - 1 : 0xffffu;
            uint32_t cand =
                Ops::matchMask(tags + group, tag) & lanes & chain;
            while (cand) {
                const size_t s =
                    group + size_t(std::countr_zero(cand));
                if (kv[s].key == key)
                    return {s, true};
                cand &= cand - 1;
            }
            if (empty)
                return {group + size_t(std::countr_zero(empty)),
                        false};
            group = (group + simd::GroupWidth) & _mask;
            lanes = 0xffffu;
        }
    }

    size_t
    findSlot(K key) const
    {
        if (_size == 0)
            return NoSlot;
        const Probe p = probeSlot(mix(key), key);
        return p.found ? p.slot : NoSlot;
    }

    /**
     * Backward-shift removal of the entry at `hole`: entries whose
     * probe path crosses the hole are pulled back over it, leaving
     * no tombstone.
     */
    void
    eraseSlot(size_t hole)
    {
        const size_t mask = _mask;
        size_t probe = next(hole);
        while (_tags[probe]) {
            // An entry may back-fill the hole iff the hole lies on
            // its probe path, i.e. within [home, probe) circularly.
            const size_t home = mix(_kv[probe].key) >> _shift;
            if (((hole - home) & mask) < ((probe - home) & mask)) {
                _tags[hole] = _tags[probe];
                _kv[hole].key = _kv[probe].key;
                _kv[hole].value = std::move(_kv[probe].value);
                hole = probe;
            }
            probe = next(probe);
        }
        _tags[hole] = 0;
        releaseSlot(hole);
        --_size;
    }

    /** Eagerly releases a vacated value's resources. A trivial V
     *  has none, and skipping the store keeps erase write-free on
     *  the payload array. */
    void
    releaseSlot(size_t slot)
    {
        if constexpr (!std::is_trivially_destructible_v<V>)
            _kv[slot].value = V();
    }

    void
    rehash(size_t new_capacity)
    {
        HYPERSIO_ASSERT((new_capacity & (new_capacity - 1)) == 0,
                        "flat map capacity must be a power of two");
        std::vector<uint8_t> old_tags = std::move(_tags);
        std::unique_ptr<KV[]> old_kv = std::move(_kv);
        const size_t old_capacity = _capacity;
        _tags.assign(new_capacity, 0);
        // Default-initialized on purpose: for trivial K/V this is
        // raw storage (no memset of the payload), and slots are
        // only ever read after their tag marks them live.
        _kv.reset(new KV[new_capacity]);
        _capacity = new_capacity;
        _mask = new_capacity - 1;
        _shift = std::countl_zero(new_capacity) + 1;
        _growAt = new_capacity / 2;
        // Reinsert in slot order: deterministic given the same
        // insert/erase history.
        for (size_t s = 0; s < old_capacity; ++s) {
            if (!old_tags[s])
                continue;
            const uint64_t h = mix(old_kv[s].key);
            size_t slot = h >> _shift;
            while (_tags[slot])
                slot = next(slot);
            _tags[slot] = tagOf(h);
            _kv[slot].key = old_kv[s].key;
            _kv[slot].value = std::move(old_kv[s].value);
        }
    }

    std::vector<uint8_t> _tags; ///< 0 = empty; else tagOf(hash)
    std::unique_ptr<KV[]> _kv;  ///< live iff the matching tag is set
    size_t _capacity = 0;
    size_t _size = 0;
    size_t _growAt = 0;
    size_t _mask = 0;  ///< capacity() - 1; 0 before the first insert
    int _shift = 63;   ///< bucket = mix(key) >> _shift
};


} // namespace hypersio::util

#endif // HYPERSIO_UTIL_FLAT_MAP_HH
