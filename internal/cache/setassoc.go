// Package cache provides a generic set-associative container with true-LRU
// replacement. It is the storage substrate for every cache-like structure in
// the system: L1/L2 TLBs, the page-walk cache, the L1/L2 data caches, and
// the IDYLL-InMem VM-Cache. It models capacity and replacement only; timing
// belongs to the components that embed it.
package cache

// SetAssoc is a set-associative cache mapping keys of type K to values of
// type V. The zero value is not usable; construct with New.
type SetAssoc[K comparable, V any] struct {
	sets    int
	ways    int
	index   func(K) uint64
	lines   [][]line[K, V] // [set][way], ordered MRU-first
	size    int
	lookups uint64
	hits    uint64
	evicts  uint64
}

type line[K comparable, V any] struct {
	key K
	val V
}

// New builds a cache with the given geometry. index maps a key to a set
// (reduced modulo sets); a nil index uses the identity for integer-like
// hashing via the provided function — callers must supply one for non-integer
// keys.
func New[K comparable, V any](sets, ways int, index func(K) uint64) *SetAssoc[K, V] {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if index == nil {
		panic("cache: nil index function")
	}
	return &SetAssoc[K, V]{
		sets:  sets,
		ways:  ways,
		index: index,
		lines: make([][]line[K, V], sets),
	}
}

// Sets reports the number of sets.
func (c *SetAssoc[K, V]) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *SetAssoc[K, V]) Ways() int { return c.ways }

// Len reports the number of resident entries.
func (c *SetAssoc[K, V]) Len() int { return c.size }

// Capacity reports sets × ways.
func (c *SetAssoc[K, V]) Capacity() int { return c.sets * c.ways }

// Lookups reports the number of Lookup calls.
func (c *SetAssoc[K, V]) Lookups() uint64 { return c.lookups }

// Hits reports the number of Lookup calls that hit.
func (c *SetAssoc[K, V]) Hits() uint64 { return c.hits }

// Evictions reports the number of entries displaced by Insert.
func (c *SetAssoc[K, V]) Evictions() uint64 { return c.evicts }

// HitRate reports hits/lookups, or 0 if there were no lookups.
func (c *SetAssoc[K, V]) HitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.lookups)
}

func (c *SetAssoc[K, V]) set(key K) int {
	return int(c.index(key) % uint64(c.sets))
}

// Lookup finds key, promoting it to MRU on hit.
func (c *SetAssoc[K, V]) Lookup(key K) (V, bool) {
	c.lookups++
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			c.hits++
			hit := ln[i]
			copy(ln[1:i+1], ln[:i])
			ln[0] = hit
			return hit.val, true
		}
	}
	var zero V
	return zero, false
}

// Insert adds or updates key→val as the MRU line of its set, evicting the
// LRU line if the set is full. It returns the evicted pair, if any.
func (c *SetAssoc[K, V]) Insert(key K, val V) (evictedKey K, evictedVal V, evicted bool) {
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			copy(ln[1:i+1], ln[:i])
			ln[0] = line[K, V]{key: key, val: val}
			return
		}
	}
	if len(ln) >= c.ways {
		victim := ln[len(ln)-1]
		copy(ln[1:], ln[:len(ln)-1])
		ln[0] = line[K, V]{key: key, val: val}
		c.evicts++
		return victim.key, victim.val, true
	}
	// Grow in place: sets are allocated at full associativity on first use,
	// so the steady-state insert path never allocates.
	if ln == nil {
		ln = make([]line[K, V], 0, c.ways)
	}
	ln = append(ln, line[K, V]{})
	copy(ln[1:], ln[:len(ln)-1])
	ln[0] = line[K, V]{key: key, val: val}
	c.lines[s] = ln
	c.size++
	return
}

// Invalidate removes key and reports whether it was resident.
func (c *SetAssoc[K, V]) Invalidate(key K) bool {
	s := c.set(key)
	ln := c.lines[s]
	for i := range ln {
		if ln[i].key == key {
			c.lines[s] = append(ln[:i], ln[i+1:]...)
			c.size--
			return true
		}
	}
	return false
}

// InvalidateRange removes every entry of a uint64-keyed cache whose key lies
// in [lo, hi] and reports how many were removed; the survivors keep their LRU
// order. It is the page-granular flush of a cacheline-keyed cache, and it
// picks its method by geometry: a range with fewer keys than the cache has
// sets is probed key by key, anything wider is one pass over the sets.
func InvalidateRange[V any](c *SetAssoc[uint64, V], lo, hi uint64) int {
	removed := 0
	if hi-lo < uint64(c.sets)-1 {
		for k := lo; ; k++ {
			if c.Invalidate(k) {
				removed++
			}
			if k == hi {
				return removed
			}
		}
	}
	for s := range c.lines {
		ln := c.lines[s]
		kept := ln[:0]
		for i := range ln {
			if k := ln[i].key; k >= lo && k <= hi {
				removed++
			} else {
				kept = append(kept, ln[i])
			}
		}
		c.lines[s] = kept
	}
	c.size -= removed
	return removed
}

// Flush removes every entry, keeping each set's storage for reuse.
func (c *SetAssoc[K, V]) Flush() {
	for s := range c.lines {
		clear(c.lines[s])
		c.lines[s] = c.lines[s][:0]
	}
	c.size = 0
}

// Range calls fn for every resident entry until fn returns false.
func (c *SetAssoc[K, V]) Range(fn func(K, V) bool) {
	for s := range c.lines {
		for i := range c.lines[s] {
			if !fn(c.lines[s][i].key, c.lines[s][i].val) {
				return
			}
		}
	}
}
