/**
 * @file
 * Open-addressing hash containers for the simulator's hot sets.
 *
 * `std::unordered_map` buys pointer stability with one heap node per
 * element; the hot paths here (SecPB index, WPQ queued set, counter
 * blocks, PM image, in-flight walks) pay for that with a cache miss per
 * probe. FlatMap/FlatSet store entries inline in one power-of-two slot
 * array with linear probing and backward-shift deletion (no tombstones),
 * so a lookup is one hash plus a short contiguous scan.
 *
 * Contract differences from unordered_map -- callers must respect them:
 *  - find() returns a value *pointer* (nullptr when absent), not an
 *    iterator.
 *  - Any insert may grow the table and any erase back-shifts its cluster:
 *    both invalidate every outstanding value pointer. Do not hold a
 *    pointer across a mutation.
 *  - forEach() visits entries in slot order. That order is a pure
 *    function of the insert/erase history and the hash, so fixed-seed
 *    runs iterate identically -- but it is NOT sorted; callers needing a
 *    canonical order sort keys (see sortedKeys()).
 *  - Mutating the table inside forEach() is forbidden.
 */

#ifndef SECPB_MEM_FLAT_MAP_HH
#define SECPB_MEM_FLAT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace secpb
{

/** Strong avalanche for integral keys (splitmix64 finalizer). */
struct FlatIntHash
{
    constexpr std::uint64_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Open-addressing hash map: linear probing, power-of-two capacity,
 * backward-shift deletion. Keys and values live inline in one slot
 * array. Grows at 3/4 load.
 */
template <typename K, typename V, typename Hash = FlatIntHash>
class FlatMap
{
  public:
    struct Entry
    {
        K first{};
        V second{};
    };

    FlatMap() = default;

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _slots.size(); }

    /** Value for @p key, or nullptr. Invalidated by any mutation. */
    const V *
    find(const K &key) const
    {
        if (_size == 0)
            return nullptr;
        const std::size_t i = probe(key);
        return _used[i] ? &_slots[i].second : nullptr;
    }

    V *
    find(const K &key)
    {
        return const_cast<V *>(
            static_cast<const FlatMap *>(this)->find(key));
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /** Insert-or-find, like unordered_map::operator[]. */
    V &
    operator[](const K &key)
    {
        maybeGrow(_size + 1);
        const std::size_t i = probe(key);
        if (!_used[i]) {
            _used[i] = 1;
            _slots[i].first = key;
            _slots[i].second = V{};
            ++_size;
        }
        return _slots[i].second;
    }

    /** Insert @p value under @p key; returns false if key existed. */
    bool
    insert(const K &key, const V &value)
    {
        maybeGrow(_size + 1);
        const std::size_t i = probe(key);
        if (_used[i])
            return false;
        _used[i] = 1;
        _slots[i].first = key;
        _slots[i].second = value;
        ++_size;
        return true;
    }

    /**
     * The value under @p key, value-initialised and inserted if absent;
     * @p inserted says which. One probe on a hit. Unlike operator[], a
     * hit never grows the table, so the table ends up exactly as after
     * find() and, on a miss, insert().
     */
    V &
    findOrInsert(const K &key, bool &inserted)
    {
        if (_slots.empty())
            rehash(kMinCapacity);
        std::size_t i = probe(key);
        inserted = !_used[i];
        if (inserted) {
            if ((_size + 1) * 4 > _slots.size() * 3) {
                rehash(_slots.size() * 2);
                i = probe(key);
            }
            _used[i] = 1;
            _slots[i].first = key;
            _slots[i].second = V{};
            ++_size;
        }
        return _slots[i].second;
    }

    /**
     * Remove @p key, backward-shifting the probe cluster so no tombstone
     * is left behind. Returns false if the key was absent.
     */
    bool
    erase(const K &key)
    {
        if (_size == 0)
            return false;
        const std::size_t i = probe(key);
        if (!_used[i])
            return false;
        eraseSlot(i);
        return true;
    }

    /**
     * Remove @p key and hand its value to @p out: erase() and the find()
     * before it in one probe. Returns false (and leaves @p out alone) if
     * the key was absent.
     */
    bool
    take(const K &key, V &out)
    {
        if (_size == 0)
            return false;
        const std::size_t i = probe(key);
        if (!_used[i])
            return false;
        out = _slots[i].second;
        eraseSlot(i);
        return true;
    }

    /** Drop everything; capacity is retained. */
    void
    clear()
    {
        std::fill(_used.begin(), _used.end(), std::uint8_t{0});
        for (Entry &e : _slots)
            e = Entry{};
        _size = 0;
    }

    /** Ensure @p n entries fit without growth (one up-front rehash). */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = std::max<std::size_t>(_slots.size(), kMinCapacity);
        while (n * 4 > cap * 3)
            cap <<= 1;
        if (cap > _slots.size())
            rehash(cap);
    }

    /**
     * Visit every entry as f(key, value) in slot order (deterministic
     * for a deterministic history, unsorted). The table must not be
     * mutated from inside @p f.
     */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::size_t i = 0; i < _slots.size(); ++i)
            if (_used[i])
                f(_slots[i].first, _slots[i].second);
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < _slots.size(); ++i)
            if (_used[i])
                f(_slots[i].first, _slots[i].second);
    }

    /** All keys, sorted -- the canonical deterministic dump order. */
    std::vector<K>
    sortedKeys() const
    {
        std::vector<K> keys;
        keys.reserve(_size);
        forEach([&](const K &k, const V &) { keys.push_back(k); });
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;

    /** Slot of @p key if present, else the empty slot to place it in. */
    std::size_t
    probe(const K &key) const
    {
        const std::size_t mask = _slots.size() - 1;
        std::size_t i = _hash(key) & mask;
        while (_used[i] && !(_slots[i].first == key))
            i = (i + 1) & mask;
        return i;
    }

    /** Empty used slot @p hole, back-shifting its probe cluster. */
    void
    eraseSlot(std::size_t hole)
    {
        const std::size_t mask = _slots.size() - 1;
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask;
            if (!_used[j])
                break;
            // Slot j may fill the hole iff the hole lies on j's probe
            // path: dist(ideal -> j) >= dist(hole -> j), cyclically.
            const std::size_t ideal = _hash(_slots[j].first) & mask;
            if (((j - ideal) & mask) >= ((j - hole) & mask)) {
                _slots[hole] = _slots[j];
                hole = j;
            }
        }
        _used[hole] = 0;
        _slots[hole] = Entry{};
        --_size;
    }

    void
    maybeGrow(std::size_t needed)
    {
        if (_slots.empty())
            rehash(kMinCapacity);
        else if (needed * 4 > _slots.size() * 3)
            rehash(_slots.size() * 2);
    }

    void
    rehash(std::size_t new_cap)
    {
        panic_if(new_cap & (new_cap - 1),
                 "FlatMap capacity must be a power of two");
        std::vector<Entry> old_slots;
        std::vector<std::uint8_t> old_used;
        old_slots.swap(_slots);
        old_used.swap(_used);
        _slots.resize(new_cap);
        _used.assign(new_cap, 0);
        const std::size_t mask = new_cap - 1;
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (!old_used[i])
                continue;
            std::size_t j = _hash(old_slots[i].first) & mask;
            while (_used[j])
                j = (j + 1) & mask;
            _used[j] = 1;
            _slots[j] = old_slots[i];
        }
    }

    std::vector<Entry> _slots;
    std::vector<std::uint8_t> _used;
    std::size_t _size = 0;
    Hash _hash;
};

/** Open-addressing hash set: FlatMap machinery without a value. */
template <typename K, typename Hash = FlatIntHash>
class FlatSet
{
  public:
    std::size_t size() const { return _map.size(); }
    bool empty() const { return _map.empty(); }

    bool contains(const K &key) const { return _map.contains(key); }
    std::size_t count(const K &key) const { return contains(key) ? 1 : 0; }

    /** Insert @p key; returns false if it was already present. */
    bool insert(const K &key) { return _map.insert(key, Unit{}); }

    bool erase(const K &key) { return _map.erase(key); }
    void clear() { _map.clear(); }
    void reserve(std::size_t n) { _map.reserve(n); }

    template <typename F>
    void
    forEach(F &&f) const
    {
        _map.forEach([&](const K &k, const Unit &) { f(k); });
    }

    std::vector<K> sortedKeys() const { return _map.sortedKeys(); }

  private:
    struct Unit
    {
    };
    FlatMap<K, Unit, Hash> _map;
};

} // namespace secpb

#endif // SECPB_MEM_FLAT_MAP_HH
