// Package coherence implements the flat-COMA (COMA-F) write-invalidate
// protocol of the paper (§4.2): per-home directories tracking the master
// copy and copyset of every block, read and write/upgrade transactions, and
// the replacement/injection chain that preserves the last copy of a block
// when a master is evicted.
//
// The protocol operates on "protocol addresses": physical block addresses in
// the physically-addressed schemes (L0/L1/L2-TLB) and virtual block
// addresses in L3-TLB and V-COMA (where page colouring makes the two index
// identically and the home node is the same either way — paper Figure 4).
// A pluggable home function maps a block to its home node.
package coherence

import (
	"fmt"
	"math/bits"

	"vcoma/internal/addr"
	"vcoma/internal/mem"
)

// Entry is one directory entry: the global state of one memory block.
type Entry struct {
	// Copyset is the bitmask of nodes holding a copy, including the
	// master. The protocol supports up to 64 nodes.
	Copyset uint64
	// Master is the node holding the master (MasterShared or Exclusive)
	// copy. Meaningless when Copyset is zero.
	Master addr.Node
	// Swapped marks a block whose last copy was pushed out of the machine
	// (injection chain exhausted); the next access refetches it from
	// backing store.
	Swapped bool
}

// Holders returns the number of nodes in the copyset.
func (e *Entry) Holders() int { return bits.OnesCount64(e.Copyset) }

// Holds reports whether node n is in the copyset.
func (e *Entry) Holds(n addr.Node) bool { return e.Copyset&(1<<uint(n)) != 0 }

// Add inserts node n into the copyset.
func (e *Entry) Add(n addr.Node) { e.Copyset |= 1 << uint(n) }

// Remove deletes node n from the copyset.
func (e *Entry) Remove(n addr.Node) { e.Copyset &^= 1 << uint(n) }

// AnyHolderExcept returns some copyset node other than n, or (-1, false).
func (e *Entry) AnyHolderExcept(n addr.Node) (addr.Node, bool) {
	rest := e.Copyset &^ (1 << uint(n))
	if rest == 0 {
		return -1, false
	}
	return addr.Node(bits.TrailingZeros64(rest)), true
}

// Directory is the machine-wide set of directory entries, logically
// partitioned across home nodes by the home function.
//
// Entries are carved out of fixed-capacity chunks rather than allocated
// one by one: preloading a working set touches thousands of blocks, and
// per-Entry allocations dominated the simulator's heap profile. A chunk is
// never reallocated once handed out, so *Entry pointers stay stable for
// the life of the directory.
type Directory struct {
	entries map[uint64]*Entry
	arena   []Entry // current chunk; full when len == cap
}

// arenaChunk is the entry-arena chunk size.
const arenaChunk = 1024

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[uint64]*Entry)}
}

// Lookup returns the entry for block, or nil.
func (d *Directory) Lookup(block uint64) *Entry { return d.entries[block] }

// Ensure returns the entry for block, creating an empty one if needed.
func (d *Directory) Ensure(block uint64) *Entry {
	e := d.entries[block]
	if e == nil {
		if len(d.arena) == cap(d.arena) {
			d.arena = make([]Entry, 0, arenaChunk)
		}
		d.arena = d.arena[:len(d.arena)+1]
		e = &d.arena[len(d.arena)-1]
		d.entries[block] = e
	}
	return e
}

// Remove deletes block's entry, if any (address-mapping change: the
// directory page is reclaimed).
func (d *Directory) Remove(block uint64) { delete(d.entries, block) }

// Len returns the number of entries.
func (d *Directory) Len() int { return len(d.entries) }

// CheckBlock validates one block's directory entry against every node's
// view of it; states[n] is node n's probe of block, so len(states) is the
// node count. It checks exactly one master, copyset/presence agreement,
// Exclusive implies sole holder, and an empty copyset only for swapped
// blocks; a block with no entry must have no resident copies. The runtime
// invariant checker (internal/check) calls it for every block a reference
// touched, filling states from one AM set scan per node.
func (d *Directory) CheckBlock(block uint64, states []ProbeState) error {
	e := d.entries[block]
	if err := checkEntry(block, e); err != nil {
		return err
	}
	masters := 0
	for n, st := range states {
		if err := checkCopy(block, e, addr.Node(n), st); err != nil {
			return err
		}
		if st.Master {
			masters++
		}
	}
	return checkMasters(block, e, masters)
}

// checkEntry validates an entry's own fields: an empty copyset only when
// swapped, a swapped block holds no copies, and the master is a holder. A
// nil entry (no directory state for the block) is well formed.
func checkEntry(block uint64, e *Entry) error {
	switch {
	case e == nil:
		return nil
	case e.Copyset == 0 && !e.Swapped:
		return fmt.Errorf("coherence: block %#x has empty copyset but is not swapped (last copy destroyed)", block)
	case e.Copyset == 0:
		return nil
	case e.Swapped:
		return fmt.Errorf("coherence: block %#x swapped with non-empty copyset %#x", block, e.Copyset)
	case !e.Holds(e.Master):
		return fmt.Errorf("coherence: block %#x master %d not in copyset %#x", block, e.Master, e.Copyset)
	}
	return nil
}

// checkCopy validates node n's view st of block against its entry e (nil if
// the block has none): presence must match the copyset, a master copy must
// be the directory's master, and an Exclusive copy must be the only one.
// These are the per-node rules shared by CheckBlock, which applies them to
// every node, and Protocol.CheckInvariants, which applies them to copyset
// holders and to every resident copy.
func checkCopy(block uint64, e *Entry, n addr.Node, st ProbeState) error {
	switch {
	case e == nil:
		if st.Present {
			return fmt.Errorf("coherence: block %#x has no directory entry but node %d holds a copy", block, n)
		}
		return nil
	case e.Copyset == 0:
		if st.Present {
			return fmt.Errorf("coherence: block %#x swapped but node %d holds a copy", block, n)
		}
		return nil
	}
	if st.Present != e.Holds(n) {
		return fmt.Errorf("coherence: block %#x node %d presence %v disagrees with copyset %#x",
			block, n, st.Present, e.Copyset)
	}
	if st.Master && n != e.Master {
		return fmt.Errorf("coherence: block %#x node %d is master but directory says %d",
			block, n, e.Master)
	}
	if st.Exclusive && e.Holders() != 1 {
		return fmt.Errorf("coherence: block %#x exclusive at node %d with %d holders",
			block, n, e.Holders())
	}
	return nil
}

// checkMasters checks that a resident block (non-empty copyset) has exactly
// one master copy among its holders.
func checkMasters(block uint64, e *Entry, masters int) error {
	if e != nil && e.Copyset != 0 && masters != 1 {
		return fmt.Errorf("coherence: block %#x has %d masters", block, masters)
	}
	return nil
}

// ProbeState is a node's view of a block for invariant checking.
type ProbeState struct {
	Present   bool
	Master    bool // MasterShared or Exclusive
	Exclusive bool
}

// ProbeOf converts an attraction-memory state into its ProbeState.
func ProbeOf(s mem.State) ProbeState {
	return ProbeState{
		Present:   s != mem.Invalid,
		Master:    s.IsMaster(),
		Exclusive: s == mem.Exclusive,
	}
}
