package pagetable

import (
	"testing"
	"testing/quick"

	"idyll/internal/memdef"
)

func TestMapLookupRoundTrip(t *testing.T) {
	pt := New(memdef.Page4K)
	pte := PTE{PFN: memdef.MakePFN(memdef.GPUDevice(1), 77), Valid: true, Writable: true}
	pt.Map(0xabcdef, pte)
	got, ok := pt.Lookup(0xabcdef)
	if !ok || got != pte {
		t.Fatalf("Lookup = %+v,%v", got, ok)
	}
	if _, ok := pt.Lookup(0xabcdee); ok {
		t.Fatal("phantom mapping")
	}
}

func TestWalkVisitsAllLevelsForMappedPage(t *testing.T) {
	pt := New(memdef.Page4K)
	vpn := memdef.VPN(0x123456789 & (1<<36 - 1))
	pt.Map(vpn, PTE{Valid: true})
	visits, pte, ok := pt.Walk(vpn)
	if !ok || !pte.Valid {
		t.Fatalf("walk failed: ok=%v pte=%+v", ok, pte)
	}
	if len(visits) != 4 {
		t.Fatalf("visited %d levels, want 4", len(visits))
	}
	for i, v := range visits {
		wantLevel := 4 - i
		if v.Level != wantLevel {
			t.Errorf("visit %d level %d, want %d", i, v.Level, wantLevel)
		}
		if v.Prefix != memdef.LevelPrefix(vpn, wantLevel) {
			t.Errorf("visit %d prefix %#x mismatch", i, v.Prefix)
		}
	}
}

func TestWalkStopsEarlyOnAbsentSubtree(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(0, PTE{Valid: true})
	// A VPN differing at the top level: only the L4 entry is inspected.
	far := memdef.VPN(1) << 27
	visits, _, ok := pt.Walk(far)
	if ok {
		t.Fatal("walk found absent mapping")
	}
	if len(visits) != 1 || visits[0].Level != 4 {
		t.Fatalf("visits = %+v, want single L4 visit", visits)
	}
	// A VPN sharing L4..L2 but with a different leaf index walks all levels.
	near := memdef.VPN(1)
	visits, _, ok = pt.Walk(near)
	if ok {
		t.Fatal("walk found absent leaf")
	}
	if len(visits) != 4 {
		t.Fatalf("near-miss visited %d levels, want 4", len(visits))
	}
}

func TestInvalidateKeepsResidentEntry(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(42, PTE{Valid: true})
	if !pt.Invalidate(42) {
		t.Fatal("first invalidation should report a valid entry")
	}
	if pt.Invalidate(42) {
		t.Fatal("second invalidation should be unnecessary")
	}
	// The stale entry still costs a full walk.
	visits, pte, ok := pt.Walk(42)
	if !ok || pte.Valid {
		t.Fatalf("stale PTE walk: ok=%v valid=%v", ok, pte.Valid)
	}
	if len(visits) != 4 {
		t.Fatalf("stale walk visited %d levels", len(visits))
	}
	if pt.Resident() != 1 {
		t.Fatalf("resident=%d, want the stale entry kept", pt.Resident())
	}
}

func TestInvalidateAbsentIsUnnecessary(t *testing.T) {
	pt := New(memdef.Page4K)
	if pt.Invalidate(7) {
		t.Fatal("invalidating an absent entry must report unnecessary")
	}
	if pt.Resident() != 0 {
		t.Fatal("invalidation of absent entry must not allocate")
	}
}

func Test2MBTableHasThreeLevels(t *testing.T) {
	pt := New(memdef.Page2M)
	vpn := memdef.VPN(0x1ffffff) // 25-bit VPN
	pt.Map(vpn, PTE{Valid: true})
	visits, pte, ok := pt.Walk(vpn)
	if !ok || !pte.Valid {
		t.Fatal("2MB walk failed")
	}
	if len(visits) != 3 {
		t.Fatalf("2MB walk visited %d levels, want 3", len(visits))
	}
}

func TestRemoteMappingDetection(t *testing.T) {
	local := memdef.GPUDevice(0)
	pte := PTE{PFN: memdef.MakePFN(memdef.GPUDevice(2), 5), Valid: true}
	if !pte.Remote(local) {
		t.Fatal("mapping to GPU2 memory should be remote for GPU0")
	}
	if pte.Remote(memdef.GPUDevice(2)) {
		t.Fatal("mapping should be local for its owner")
	}
	if (PTE{}).Remote(local) {
		t.Fatal("invalid PTE must not report remote")
	}
}

func TestEntryAuxBitsPersist(t *testing.T) {
	pt := New(memdef.Page4K)
	pt.Map(9, PTE{Valid: true})
	pt.Entry(9).Aux |= 1 << 3
	got, _ := pt.Lookup(9)
	if got.Aux != 1<<3 {
		t.Fatalf("Aux = %#x", got.Aux)
	}
}

func TestRangeVisitsAllEntries(t *testing.T) {
	pt := New(memdef.Page4K)
	want := map[memdef.VPN]bool{}
	for _, v := range []memdef.VPN{1, 513, 1 << 20, 1 << 30} {
		pt.Map(v, PTE{Valid: true})
		want[v] = true
	}
	got := map[memdef.VPN]bool{}
	pt.Range(func(v memdef.VPN, p PTE) bool {
		got[v] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ranged %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if !got[v] {
			t.Errorf("vpn %#x missing from Range", v)
		}
	}
}

// Property: Map then Lookup always round-trips, and Walk agrees with Lookup.
func TestMapWalkAgreementProperty(t *testing.T) {
	prop := func(raws []uint64) bool {
		pt := New(memdef.Page4K)
		seen := map[memdef.VPN]PTE{}
		for i, raw := range raws {
			vpn := memdef.VPN(raw & (1<<36 - 1))
			pte := PTE{PFN: memdef.PFN(i), Valid: i%3 != 0}
			pt.Map(vpn, pte)
			seen[vpn] = pte
		}
		for vpn, want := range seen {
			got, ok := pt.Lookup(vpn)
			if !ok || got != want {
				return false
			}
			visits, wgot, wok := pt.Walk(vpn)
			if !wok || wgot != want || len(visits) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
