package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

func ident(k uint64) uint64 { return k }

func newTest(sets, ways int) *SetAssoc[uint64, int] {
	return New[uint64, int](sets, ways, ident)
}

func TestInsertLookup(t *testing.T) {
	c := newTest(4, 2)
	c.Insert(10, 100)
	v, ok := c.Lookup(10)
	if !ok || v != 100 {
		t.Fatalf("Lookup(10) = %d,%v", v, ok)
	}
	if _, ok := c.Lookup(11); ok {
		t.Fatal("phantom hit")
	}
	if c.Hits() != 1 || c.Lookups() != 2 {
		t.Fatalf("stats hits=%d lookups=%d", c.Hits(), c.Lookups())
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	c := newTest(1, 2)
	c.Insert(1, 10)
	c.Insert(1, 20)
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew cache to %d", c.Len())
	}
	if v, _ := c.Lookup(1); v != 20 {
		t.Fatalf("update lost: %d", v)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newTest(1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Lookup(1) // 1 becomes MRU; 2 is LRU
	ek, _, ev := c.Insert(3, 3)
	if !ev || ek != 2 {
		t.Fatalf("evicted %d,%v; want key 2", ek, ev)
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("MRU line 1 evicted")
	}
}

func TestSetIsolation(t *testing.T) {
	c := newTest(4, 1)
	// Keys 0..3 land in distinct sets; none should evict another.
	for k := uint64(0); k < 4; k++ {
		if _, _, ev := c.Insert(k, int(k)); ev {
			t.Fatalf("cross-set eviction on key %d", k)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want 4", c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := newTest(2, 2)
	c.Insert(5, 50)
	if !c.Invalidate(5) {
		t.Fatal("Invalidate missed resident key")
	}
	if c.Invalidate(5) {
		t.Fatal("Invalidate hit absent key")
	}
	if _, ok := c.Lookup(5); ok {
		t.Fatal("key survived invalidation")
	}
}

func TestInvalidateRange(t *testing.T) {
	// Ranges narrower than the set count are probed key by key; wider ones
	// scan every set. Both must remove exactly the keys in range and keep
	// the survivors' LRU order.
	for _, tc := range []struct{ lo, hi uint64 }{{4, 6}, {4, 11}, {0, 15}, {20, 30}} {
		c := newTest(4, 4)
		for k := uint64(0); k < 16; k++ {
			c.Insert(k, int(k))
		}
		var want []uint64
		c.Range(func(k uint64, _ int) bool {
			if k < tc.lo || k > tc.hi {
				want = append(want, k)
			}
			return true
		})
		n := InvalidateRange(c, tc.lo, tc.hi)
		if n != 16-len(want) || c.Len() != len(want) {
			t.Fatalf("[%d,%d]: removed %d, len %d; want %d, %d", tc.lo, tc.hi, n, c.Len(), 16-len(want), len(want))
		}
		var got []uint64
		c.Range(func(k uint64, _ int) bool { got = append(got, k); return true })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("[%d,%d]: survivors %v, want %v", tc.lo, tc.hi, got, want)
		}
	}
}

func TestFlush(t *testing.T) {
	c := newTest(2, 2)
	for k := uint64(0); k < 4; k++ {
		c.Insert(k, 0)
	}
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("len = %d after flush", c.Len())
	}
}

func TestHitRate(t *testing.T) {
	c := newTest(1, 4)
	c.Insert(1, 1)
	c.Lookup(1)
	c.Lookup(2)
	if hr := c.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
}

// Property: occupancy never exceeds capacity and no set exceeds its ways,
// regardless of the insertion sequence.
func TestCapacityInvariantProperty(t *testing.T) {
	prop := func(keys []uint64, sets8, ways8 uint8) bool {
		sets := int(sets8%8) + 1
		ways := int(ways8%8) + 1
		c := New[uint64, struct{}](sets, ways, ident)
		for _, k := range keys {
			c.Insert(k, struct{}{})
			if c.Len() > c.Capacity() {
				return false
			}
		}
		// Per-set occupancy check.
		counts := make(map[int]int)
		c.Range(func(k uint64, _ struct{}) bool {
			counts[int(k%uint64(sets))]++
			return true
		})
		for _, n := range counts {
			if n > ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an entry just inserted is always resident (insert-then-lookup).
func TestInsertThenLookupProperty(t *testing.T) {
	prop := func(keys []uint64) bool {
		c := New[uint64, int](4, 2, ident)
		for i, k := range keys {
			c.Insert(k, i)
			if v, ok := c.Lookup(k); !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
