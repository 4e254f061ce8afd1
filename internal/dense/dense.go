// Package dense provides a two-level table indexed by a uint64: the
// simulator's stand-in for the dense memories of the paper's machine (the
// directory indexed by directory address, the page table indexed by page
// number, frames handed out round-robin). Slots live in fixed-size chunks
// allocated on first touch, so a lookup is two indexed loads and a table
// over a sparse index pays only for the chunks it touches.
package dense

import "fmt"

const (
	chunkBits = 10             // log2 of the slots per chunk
	chunkLen  = 1 << chunkBits // slots per chunk
	// MaxIndex is the largest index Ensure accepts. It bounds the top-level
	// slice of chunk pointers (8 MiB at the bound), so a stray index fails
	// loudly instead of allocating without limit.
	MaxIndex = 1<<30 - 1
)

// Table is a two-level table of T indexed by a uint64. The zero value is an
// empty table. A slot's pointer stays valid for the life of the table:
// chunks are never moved or freed.
type Table[T any] struct {
	chunks []*[chunkLen]T
}

// At returns the slot for index i, or nil if its chunk was never touched.
// It never allocates. A non-nil slot may still hold the zero T: presence
// beyond the chunk is the caller's to record.
func (t *Table[T]) At(i uint64) *T {
	if c := i >> chunkBits; c < uint64(len(t.chunks)) {
		if ch := t.chunks[c]; ch != nil {
			return &ch[i&(chunkLen-1)]
		}
	}
	return nil
}

// Ensure returns the slot for index i, allocating its chunk on first touch.
// It panics if i exceeds MaxIndex.
func (t *Table[T]) Ensure(i uint64) *T {
	if s := t.At(i); s != nil {
		return s
	}
	return t.grow(i)
}

func (t *Table[T]) grow(i uint64) *T {
	if i > MaxIndex {
		panic(fmt.Sprintf("dense: index %#x exceeds the table bound %#x", i, uint64(MaxIndex)))
	}
	c := i >> chunkBits
	if n := c + 1; n > uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([]*[chunkLen]T, n-uint64(len(t.chunks)))...)
	}
	ch := new([chunkLen]T)
	t.chunks[c] = ch
	return &ch[i&(chunkLen-1)]
}

// Each calls f for every slot of every allocated chunk in ascending index
// order, stopping early when f returns false. Untouched chunks are skipped.
func (t *Table[T]) Each(f func(i uint64, s *T) bool) {
	for c, ch := range t.chunks {
		if ch == nil {
			continue
		}
		base := uint64(c) << chunkBits
		for j := range ch {
			if !f(base+uint64(j), &ch[j]) {
				return
			}
		}
	}
}
