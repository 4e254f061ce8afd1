package mem

import (
	"testing"
	"testing/quick"

	"vcoma/internal/addr"
)

func g() addr.Geometry {
	return addr.Geometry{NodeBits: 2, PageBits: 8, AMBlockBits: 5, AMSetBits: 6, AMAssocBits: 1}
}

func TestStates(t *testing.T) {
	if Invalid.Readable() || !Shared.Readable() || !MasterShared.Readable() || !Exclusive.Readable() {
		t.Fatal("Readable wrong")
	}
	if Shared.IsMaster() || Invalid.IsMaster() || !MasterShared.IsMaster() || !Exclusive.IsMaster() {
		t.Fatal("IsMaster wrong")
	}
	for s, w := range map[State]string{Invalid: "I", Shared: "S", MasterShared: "MS", Exclusive: "E"} {
		if s.String() != w {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestLookupInstallInvalidate(t *testing.T) {
	m := New(g())
	if m.Lookup(0x100) != Invalid {
		t.Fatal("cold lookup not Invalid")
	}
	m.Install(0x100, Shared)
	if m.Lookup(0x100) != Shared {
		t.Fatal("installed block not found")
	}
	if m.Probe(0x11F) != Shared { // same 32 B block
		t.Fatal("unaligned probe failed")
	}
	m.SetState(0x100, Exclusive)
	if m.Probe(0x100) != Exclusive {
		t.Fatal("SetState did not apply")
	}
	if m.Invalidate(0x100) != Exclusive {
		t.Fatal("Invalidate returned wrong prior state")
	}
	if m.Invalidate(0x100) != Invalid {
		t.Fatal("double invalidate found state")
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Installs != 1 || st.Invalidates != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSetStatePanics(t *testing.T) {
	m := New(g())
	defer func() {
		if recover() == nil {
			t.Fatal("SetState on absent block did not panic")
		}
	}()
	m.SetState(0x100, Shared)
}

func TestVictimPreference(t *testing.T) {
	m := New(g()) // 2-way, 64 sets, 32 B blocks: set stride 2 KB

	// Fill set 0 with a Shared and a MasterShared block.
	m.Install(0x0000, Shared)
	m.Install(0x0800, MasterShared)
	// Install into the full set: the Shared block must be the victim even
	// though the master is older in LRU terms.
	m.Lookup(0x0800) // make the master MRU... then touch shared
	m.Lookup(0x0000) // shared is MRU now; master is LRU
	v, evicted := m.Install(0x1000, Exclusive)
	if !evicted || v.State != Shared || v.Block != 0x0000 {
		t.Fatalf("victim %+v, want the Shared block", v)
	}

	// Now the set holds two masters: LRU master is evicted.
	v, evicted = m.Install(0x1800, Exclusive)
	if !evicted || !v.State.IsMaster() {
		t.Fatalf("victim %+v, want a master", v)
	}
	if m.Stats().MasterEvict != 1 {
		t.Fatalf("master evictions = %d", m.Stats().MasterEvict)
	}
}

func TestInstallExistingUpdatesState(t *testing.T) {
	m := New(g())
	m.Install(0x100, Shared)
	v, evicted := m.Install(0x100, Exclusive)
	if evicted || v != (Victim{}) {
		t.Fatalf("reinstall evicted %+v", v)
	}
	if m.Probe(0x100) != Exclusive {
		t.Fatal("reinstall did not update state")
	}
	if m.Stats().Installs != 1 {
		t.Fatal("reinstall counted as install")
	}
}

func TestAcceptanceChecks(t *testing.T) {
	m := New(g())
	if !m.HasFreeWay(0x0) {
		t.Fatal("empty set has no free way")
	}
	m.Install(0x0000, MasterShared)
	m.Install(0x0800, Shared)
	if m.HasFreeWay(0x0) {
		t.Fatal("full set reports a free way")
	}
	ok, kind := m.HasDroppableWay(0x0)
	if !ok || kind != Shared {
		t.Fatalf("droppable: %v %v", ok, kind)
	}
	m.Invalidate(0x0800)
	ok, kind = m.HasDroppableWay(0x0)
	if !ok || kind != Invalid {
		t.Fatalf("droppable after invalidate: %v %v", ok, kind)
	}
	m.Install(0x0800, Exclusive)
	m.SetState(0x0000, Exclusive)
	if ok, _ := m.HasDroppableWay(0x0); ok {
		t.Fatal("set full of masters reports droppable")
	}
}

func TestOccupancyAndCounts(t *testing.T) {
	m := New(g())
	m.Install(0x0, Shared)
	m.Install(0x20, MasterShared)
	m.Install(0x40, Exclusive)
	if m.CountState(Shared) != 1 || m.CountState(MasterShared) != 1 || m.CountState(Exclusive) != 1 {
		t.Fatal("state counts wrong")
	}
	want := 3.0 / float64(g().AMBlocksPerNode())
	if m.Occupancy() != want {
		t.Fatalf("occupancy %v, want %v", m.Occupancy(), want)
	}
	if st, occ := m.ProbeSet(0x0); st != Shared || occ != 1 {
		t.Fatalf("ProbeSet(0x0) = %v, %d ways; want S, 1", st, occ)
	}
}

func TestSetBounded(t *testing.T) {
	// Property: a set never holds more than K blocks, and an installed
	// block is always immediately present.
	err := quick.Check(func(raw []uint16, states []uint8) bool {
		m := New(g())
		for i, r := range raw {
			s := State(1 + uint8(i)%3)
			if i < len(states) {
				s = State(1 + states[i]%3)
			}
			b := uint64(r)
			m.Install(b, s)
			st, occ := m.ProbeSet(b)
			if st != s || st != m.Probe(b) {
				return false
			}
			if occ < 1 || occ > g().AMAssoc() {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
