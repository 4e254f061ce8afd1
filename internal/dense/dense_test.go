package dense

import (
	"fmt"
	"strings"
	"testing"
)

func TestDenseZeroAllocUntouched(t *testing.T) {
	var tb Table[uint64]
	tb.Ensure(5)
	for _, i := range []uint64{chunkLen, 1 << 20, MaxIndex, MaxIndex + 1, 1 << 63} {
		if s := tb.At(i); s != nil {
			t.Errorf("At(%#x) = %p on an untouched chunk, want nil", i, s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = tb.At(1 << 20) }); n != 0 {
		t.Errorf("At on an untouched chunk: %v allocs, want 0", n)
	}
	if len(tb.chunks) != 1 {
		t.Errorf("lookups grew the table to %d chunk pointers, want 1", len(tb.chunks))
	}
}

func TestSlotsPersist(t *testing.T) {
	var tb Table[int]
	for i := uint64(0); i < 3*chunkLen; i += 7 {
		*tb.Ensure(i) = int(i) + 1
	}
	for i := uint64(0); i < 3*chunkLen; i++ {
		want := 0
		if i%7 == 0 {
			want = int(i) + 1
		}
		if got := *tb.At(i); got != want {
			t.Fatalf("slot %d = %d, want %d", i, got, want)
		}
	}
	if a, b := tb.Ensure(14), tb.At(14); a != b {
		t.Fatalf("Ensure and At disagree on slot 14: %p vs %p", a, b)
	}
}

func TestSparseIndicesAllocateOnlyTheirChunks(t *testing.T) {
	var tb Table[int]
	far := []uint64{3, 1 << 16, 1 << 24, MaxIndex}
	for _, i := range far {
		*tb.Ensure(i) = 1
	}
	allocated := 0
	for _, ch := range tb.chunks {
		if ch != nil {
			allocated++
		}
	}
	if allocated != len(far) {
		t.Fatalf("%d chunks allocated for %d far-apart indices, want one each", allocated, len(far))
	}
	for _, i := range far {
		if tb.chunks[i>>chunkBits] == nil {
			t.Errorf("index %#x has no chunk", i)
		}
	}
}

func TestEnsurePastBoundPanics(t *testing.T) {
	for _, i := range []uint64{MaxIndex + 1, 1 << 40} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Ensure(%#x) did not panic", i)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, fmt.Sprintf("%#x", i)) {
					t.Fatalf("panic %q does not name index %#x", msg, i)
				}
			}()
			var tb Table[int]
			tb.Ensure(i)
		}()
	}
}

func TestEachInIndexOrder(t *testing.T) {
	var tb Table[int]
	// Touch chunks out of order; Each must still visit ascending indices.
	for _, i := range []uint64{5 * chunkLen, 17, 2*chunkLen + 3} {
		*tb.Ensure(i) = int(i)
	}
	var visited, set []uint64
	tb.Each(func(i uint64, s *int) bool {
		visited = append(visited, i)
		if *s != 0 {
			set = append(set, i)
		}
		return true
	})
	if len(visited) != 3*chunkLen {
		t.Fatalf("visited %d slots, want the %d of three chunks", len(visited), 3*chunkLen)
	}
	for k := 1; k < len(visited); k++ {
		if visited[k] <= visited[k-1] {
			t.Fatalf("visit %d: index %d after %d", k, visited[k], visited[k-1])
		}
	}
	if fmt.Sprint(set) != fmt.Sprint([]uint64{17, 2*chunkLen + 3, 5 * chunkLen}) {
		t.Fatalf("set slots visited as %v", set)
	}

	n := 0
	tb.Each(func(uint64, *int) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("Each ran %d times after f returned false at 10", n)
	}
}
