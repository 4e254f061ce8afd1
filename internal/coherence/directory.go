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
	"vcoma/internal/dense"
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

	// live distinguishes an entry, even an empty one, from a directory
	// slot the block never had (or lost to Remove).
	live bool
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
// Like the paper's directory memory, it is dense: entries are stored by
// value in a table indexed by block number (block >> blockBits), so a
// lookup is two indexed loads and preloading a working set allocates one
// chunk per 1024 blocks instead of growing a hash map. Entry pointers stay
// valid for the life of the directory.
type Directory struct {
	blockBits uint
	entries   dense.Table[Entry]
	n         int // live entries
}

// baselineBlockBits is log2 of the baseline machine's 128-byte AM block.
const baselineBlockBits = 7

// NewDirectory returns an empty directory for the baseline 128-byte block.
func NewDirectory() *Directory { return newDirectory(baselineBlockBits) }

// newDirectory returns an empty directory for 2^blockBits-byte blocks.
func newDirectory(blockBits uint) *Directory { return &Directory{blockBits: blockBits} }

// Lookup returns the entry for block, or nil. block must be block-aligned.
func (d *Directory) Lookup(block uint64) *Entry {
	if e := d.entries.At(block >> d.blockBits); e != nil && e.live {
		return e
	}
	return nil
}

// Ensure returns the entry for block, creating an empty one if needed. It
// panics on a block that is not aligned to the directory's block size.
func (d *Directory) Ensure(block uint64) *Entry {
	if block&(1<<d.blockBits-1) != 0 {
		panic(fmt.Sprintf("coherence: directory entry for unaligned block %#x", block))
	}
	e := d.entries.Ensure(block >> d.blockBits)
	if !e.live {
		e.live = true
		d.n++
	}
	return e
}

// Remove deletes block's entry, if any (address-mapping change: the
// directory page is reclaimed).
func (d *Directory) Remove(block uint64) {
	if e := d.Lookup(block); e != nil {
		*e = Entry{}
		d.n--
	}
}

// Len returns the number of entries.
func (d *Directory) Len() int { return d.n }

// each calls f for every entry in ascending block order, stopping early
// when f returns false.
func (d *Directory) each(f func(block uint64, e *Entry) bool) {
	d.entries.Each(func(i uint64, e *Entry) bool {
		return !e.live || f(i<<d.blockBits, e)
	})
}

// CheckBlock validates one block's directory entry against every node's
// view of it; states[n] is node n's probe of block, so len(states) is the
// node count. It checks exactly one master, copyset/presence agreement,
// Exclusive implies sole holder, and an empty copyset only for swapped
// blocks; a block with no entry must have no resident copies. The runtime
// invariant checker (internal/check) calls it for every block a reference
// touched, filling states from one AM set scan per node.
func (d *Directory) CheckBlock(block uint64, states []ProbeState) error {
	e := d.Lookup(block)
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
