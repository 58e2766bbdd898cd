// Package pagetable implements the radix page tables used by both the GPUs
// (local page tables, walked by the GMMU) and the UVM driver (the
// centralized host page table that holds up-to-date translations for all
// GPUs, §3.1). A 4 KB-page table has 4 levels (L4..L1); a 2 MB-page table
// has 3 (L4..L2 with L2 as the leaf).
//
// The package models structure, not timing: a Walk reports exactly which
// level entries a hardware walker would touch, and the GMMU (internal/
// walker) charges per-level latency and consults its page-walk cache using
// those visits.
package pagetable

import (
	"sort"

	"idyll/internal/memdef"
)

// PTE is a page-table entry. The GPU-local tables use PFN/Valid/Writable;
// Aux models the unused bits 62–52 of the x86-64 PTE format (Figure 8) that
// the host-side table repurposes as the in-PTE directory's GPU access bits.
type PTE struct {
	PFN      memdef.PFN
	Valid    bool
	Writable bool
	// Aux carries the 11 unused high bits (62–52) available for the in-PTE
	// directory. Only the host page table uses it.
	Aux uint16
}

// Remote reports whether the mapping points at memory not owned by dev —
// i.e. it is a remote mapping in dev's local page table (§3.2).
func (p PTE) Remote(dev memdef.DeviceID) bool {
	return p.Valid && p.PFN.Device() != dev
}

// Visit records one page-table level touched during a walk. Level runs from
// the table's top level down to 1 (leaf); Prefix is the VPN prefix that
// identifies the visited entry, the key used by the page-walk cache.
type Visit struct {
	Level  int
	Prefix uint64
}

// node is an internal radix node. Non-leaf levels hold children; the leaf
// level holds PTEs.
type node struct {
	children map[uint64]*node
	ptes     map[uint64]*PTE
}

// Table is one radix page table.
type Table struct {
	pageSize memdef.PageSize
	levels   int
	root     *node
	resident int // number of PTEs present (valid or stale-invalid)
	valid    int // number of valid PTEs
}

// New creates an empty page table for the given page size.
func New(pageSize memdef.PageSize) *Table {
	return &Table{
		pageSize: pageSize,
		levels:   pageSize.Levels(),
		root:     &node{},
	}
}

// PageSize reports the table's page size.
func (t *Table) PageSize() memdef.PageSize { return t.pageSize }

// Levels reports the number of radix levels.
func (t *Table) Levels() int { return t.levels }

// Resident reports how many PTEs exist in the table (including entries that
// have been invalidated in place, which still occupy a leaf slot and still
// cost a full walk to inspect — the "even if it were invalid to begin with"
// case of §2).
func (t *Table) Resident() int { return t.resident }

// ValidCount reports how many PTEs are currently valid.
func (t *Table) ValidCount() int { return t.valid }

// leafIndex returns the radix index of vpn at the leaf, and walkLevel maps a
// walk step i (0-based from the top) to its level number.
func (t *Table) walkLevel(step int) int { return t.levels - step }

// Walk simulates a hardware page-table walk for vpn. It returns the ordered
// level visits a walker performs and the PTE found, if any. The walk
// descends from the top level; if an intermediate entry is absent the walk
// stops there (visits includes the level where absence was discovered) and
// ok is false. If the leaf slot is empty, ok is false after a full-length
// walk. If the leaf holds an invalidated PTE, ok is true and pte.Valid is
// false — the walker walked all the way to discover staleness.
func (t *Table) Walk(vpn memdef.VPN) (visits []Visit, pte PTE, ok bool) {
	return t.WalkInto(make([]Visit, 0, t.levels), vpn)
}

// WalkInto is Walk appending into a caller-provided buffer (resliced to
// empty), letting hot callers reuse one scratch slice across walks.
func (t *Table) WalkInto(buf []Visit, vpn memdef.VPN) (visits []Visit, pte PTE, ok bool) {
	visits = buf[:0]
	n := t.root
	for step := 0; step < t.levels; step++ {
		level := t.walkLevel(step)
		visits = append(visits, Visit{Level: level, Prefix: memdef.LevelPrefix(vpn, level)})
		idx := memdef.LevelIndex(vpn, level)
		if level == 1 {
			// Leaf level. Level numbering is table-relative: the leaf is
			// always level 1 and the top level is t.levels, so a 2 MB table
			// walks levels 3,2,1 over its 24-bit VPN.
			if n.ptes == nil {
				return visits, PTE{}, false
			}
			p, exists := n.ptes[idx]
			if !exists {
				return visits, PTE{}, false
			}
			return visits, *p, true
		}
		child, exists := nilSafeChildren(n)[idx]
		if !exists {
			return visits, PTE{}, false
		}
		n = child
	}
	return visits, PTE{}, false
}

func nilSafeChildren(n *node) map[uint64]*node {
	if n.children == nil {
		return nil
	}
	return n.children
}

// Lookup returns the PTE for vpn without simulating walk structure.
func (t *Table) Lookup(vpn memdef.VPN) (PTE, bool) {
	p := t.entry(vpn, false)
	if p == nil {
		return PTE{}, false
	}
	return *p, true
}

// entry returns the *PTE for vpn, creating the radix path if create is set.
func (t *Table) entry(vpn memdef.VPN, create bool) *PTE {
	n := t.root
	for step := 0; step < t.levels-1; step++ {
		level := t.walkLevel(step)
		idx := memdef.LevelIndex(vpn, level)
		child := n.children[idx]
		if child == nil {
			if !create {
				return nil
			}
			if n.children == nil {
				n.children = make(map[uint64]*node)
			}
			child = &node{}
			n.children[idx] = child
		}
		n = child
	}
	leafLevel := t.walkLevel(t.levels - 1)
	idx := memdef.LevelIndex(vpn, leafLevel)
	p := n.ptes[idx]
	if p == nil {
		if !create {
			return nil
		}
		if n.ptes == nil {
			n.ptes = make(map[uint64]*PTE)
		}
		p = &PTE{}
		n.ptes[idx] = p
		t.resident++
	}
	return p
}

// Map installs or replaces the translation for vpn.
func (t *Table) Map(vpn memdef.VPN, pte PTE) {
	p := t.entry(vpn, true)
	if p.Valid && !pte.Valid {
		t.valid--
	} else if !p.Valid && pte.Valid {
		t.valid++
	}
	*p = pte
}

// Invalidate marks vpn's PTE invalid in place. It reports whether a valid
// translation was present — the signal that distinguishes a necessary from
// an unnecessary invalidation (§5.2). The leaf slot is retained, matching
// hardware behaviour where invalidation clears the present bit but the entry
// still occupies the table.
func (t *Table) Invalidate(vpn memdef.VPN) (wasValid bool) {
	p := t.entry(vpn, false)
	if p == nil {
		return false
	}
	if p.Valid {
		p.Valid = false
		t.valid--
		return true
	}
	return false
}

// Entry exposes the mutable PTE for vpn, creating it if needed. The UVM
// driver uses this to update the in-PTE directory access bits (Aux) during
// host-side walks.
func (t *Table) Entry(vpn memdef.VPN) *PTE {
	return t.entry(vpn, true)
}

// Range iterates all resident PTEs in ascending VPN order until fn returns
// false. The order is part of the contract: callbacks escape iteration
// order to callers, so handing them raw map order would let the map hash
// seed leak into anything built on top of Range.
func (t *Table) Range(fn func(memdef.VPN, PTE) bool) {
	t.rangeNode(t.root, 0, 0, fn)
}

func (t *Table) rangeNode(n *node, step int, prefix uint64, fn func(memdef.VPN, PTE) bool) bool {
	if step == t.levels-1 {
		for _, idx := range sortedPTEIndices(n) {
			if !fn(memdef.VPN(prefix<<9|idx), *n.ptes[idx]) {
				return false
			}
		}
		return true
	}
	for _, idx := range sortedChildIndices(n) {
		if !t.rangeNode(n.children[idx], step+1, prefix<<9|idx, fn) {
			return false
		}
	}
	return true
}

// sortedPTEIndices fixes the traversal order of one leaf node (at most 512
// entries).
func sortedPTEIndices(n *node) []uint64 {
	idxs := make([]uint64, 0, len(n.ptes))
	for idx := range n.ptes {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs
}

// sortedChildIndices fixes the traversal order of one interior node.
func sortedChildIndices(n *node) []uint64 {
	idxs := make([]uint64, 0, len(n.children))
	for idx := range n.children {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs
}
