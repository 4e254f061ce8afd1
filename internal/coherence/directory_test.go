package coherence

import (
	"fmt"
	"strings"
	"testing"
)

// TestDirectoryMissingVersusEmpty pins the distinction the dense table must
// keep: a block with no entry is well formed, while an entry with an empty
// copyset that is not swapped means the last copy was destroyed.
func TestDirectoryMissingVersusEmpty(t *testing.T) {
	d := NewDirectory()
	states := make([]ProbeState, 4)
	const b = 0x4080
	if d.Lookup(b) != nil {
		t.Fatal("fresh directory has an entry")
	}
	if err := d.CheckBlock(b, states); err != nil {
		t.Fatalf("missing entry reported: %v", err)
	}
	d.Ensure(b)
	if d.Lookup(b) == nil || d.Len() != 1 {
		t.Fatalf("after Ensure: entry %v, Len %d", d.Lookup(b), d.Len())
	}
	// A neighbour in the same chunk stays missing.
	if d.Lookup(b+128) != nil {
		t.Fatal("neighbouring block has an entry")
	}
	if err := d.CheckBlock(b, states); err == nil || !strings.Contains(err.Error(), "last copy destroyed") {
		t.Fatalf("empty unswapped entry: CheckBlock = %v", err)
	}
	d.Lookup(b).Swapped = true
	if err := d.CheckBlock(b, states); err != nil {
		t.Fatalf("empty swapped entry reported: %v", err)
	}
	d.Remove(b)
	d.Remove(b) // removing a missing entry is a no-op
	if d.Lookup(b) != nil || d.Len() != 0 {
		t.Fatalf("after Remove: entry %v, Len %d", d.Lookup(b), d.Len())
	}
	if e := d.Ensure(b); e.Swapped || e.Copyset != 0 {
		t.Fatalf("re-created entry kept old state: %+v", *e)
	}
}

func TestDirectoryLenCountsEntries(t *testing.T) {
	d := NewDirectory()
	for i := uint64(0); i < 3000; i++ {
		d.Ensure(i * 128 * 5)
		d.Ensure(i * 128 * 5) // idempotent
	}
	for i := uint64(0); i < 3000; i += 2 {
		d.Remove(i * 128 * 5)
	}
	if d.Len() != 1500 {
		t.Fatalf("Len = %d, want 1500", d.Len())
	}
	n := 0
	last := int64(-1)
	d.each(func(block uint64, _ *Entry) bool {
		if int64(block) <= last {
			t.Fatalf("each visited %#x after %#x", block, last)
		}
		last = int64(block)
		n++
		return true
	})
	if n != d.Len() {
		t.Fatalf("each visited %d entries, Len %d", n, d.Len())
	}
}

func TestDirectoryEnsureUnalignedPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "0x4081") {
			t.Fatalf("Ensure(0x4081) recovered %v, want a panic naming the block", r)
		}
	}()
	NewDirectory().Ensure(0x4081)
}

// TestDenseZeroAllocDirectory gates the directory's hot path: looking up or
// ensuring an existing entry, and looking up a block whose chunk was never
// touched, must not allocate.
func TestDenseZeroAllocDirectory(t *testing.T) {
	d := NewDirectory()
	d.Ensure(0x4080)
	var sink *Entry
	if n := testing.AllocsPerRun(1000, func() {
		sink = d.Lookup(0x4080)
		sink = d.Ensure(0x4080)
		sink = d.Lookup(1 << 40)
	}); n != 0 {
		t.Fatalf("Directory.Lookup/Ensure on an existing slot: %v allocs, want 0", n)
	}
	_ = sink
}

// TestCheckInvariantsReportsLowestBlock corrupts two directory entries and
// asserts that CheckInvariants reports the lower block every time: entries
// are walked in block order, not in hash-map order.
func TestCheckInvariantsReportsLowestBlock(t *testing.T) {
	p := newProtocol(t, nil)
	lo, hi := p.align(blockAtHome(0, 0)), p.align(blockAtHome(2, 9))
	for _, b := range []uint64{hi, lo} {
		p.Preload(b, 1)
		p.AM(1).Invalidate(b)
		p.Directory().Lookup(b).Copyset = 0
	}
	want := fmt.Sprintf("block %#x has empty copyset", lo)
	for i := 0; i < 50; i++ {
		err := p.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: CheckInvariants = %v, want %q", i, err, want)
		}
	}
}
