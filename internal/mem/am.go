// Package mem implements the attraction memory (AM) of a COMA node: a large
// set-associative cache of memory blocks with the four stable states of the
// COMA-F protocol. The AM holds no data payloads — only tags and states —
// because the simulator tracks placement and coherence, not values.
//
// The AM is indexed by whatever block address the translation scheme uses
// (physical for L0/L1/L2-TLB, virtual for L3-TLB and V-COMA); with page
// colouring both index identically (paper Figure 4), so the model takes
// plain uint64 block addresses.
package mem

import (
	"fmt"

	"vcoma/internal/addr"
)

// State is the COMA-F stable state of an attraction-memory block (§4.2).
type State uint8

const (
	// Invalid: the slot holds no valid block.
	Invalid State = iota
	// Shared: a read-only copy; at least one other node holds the block
	// and one of them is the master.
	Shared
	// MasterShared: the distinguished copy responsible for the data's
	// survival; other Shared copies may exist.
	MasterShared
	// Exclusive: the only copy, writable.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case MasterShared:
		return "MS"
	case Exclusive:
		return "E"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// IsMaster reports whether the state carries data-survival responsibility:
// evicting such a block requires injection, not a silent drop.
func (s State) IsMaster() bool { return s == MasterShared || s == Exclusive }

// Readable reports whether a local access can read the block.
func (s State) Readable() bool { return s != Invalid }

// Stats counts attraction-memory activity.
type Stats struct {
	Hits        uint64 // lookups that found the block in a readable state
	Misses      uint64 // lookups that did not
	Installs    uint64
	Evictions   uint64 // valid blocks displaced by installs
	MasterEvict uint64 // displaced blocks that required injection
	Invalidates uint64 // external invalidations that found the block
}

// Victim describes a block displaced by an install.
type Victim struct {
	Block uint64
	State State
}

// AM is one node's attraction memory.
type AM struct {
	g    addr.Geometry
	ways int

	tags  []uint64
	state []State
	age   []uint32

	stats Stats
}

// New returns an empty attraction memory for geometry g.
func New(g addr.Geometry) *AM {
	n := g.AMBlocksPerNode()
	return &AM{
		g:     g,
		ways:  g.AMAssoc(),
		tags:  make([]uint64, n),
		state: make([]State, n),
		age:   make([]uint32, n),
	}
}

// Stats returns the activity counters.
func (m *AM) Stats() Stats { return m.stats }

// BlockAddr aligns a to an AM block boundary.
func (m *AM) BlockAddr(a uint64) uint64 { return a &^ (m.g.AMBlockSize() - 1) }

func (m *AM) setBase(block uint64) int { return m.g.AMSet(block) * m.ways }

func (m *AM) find(block uint64) int {
	b := m.BlockAddr(block)
	base := m.setBase(b)
	for i := base; i < base+m.ways; i++ {
		if m.state[i] != Invalid && m.tags[i] == b {
			return i
		}
	}
	return -1
}

func (m *AM) touch(i int) {
	old := m.age[i]
	if old == 0 {
		// Already most recent — repeated hits to the same block skip the
		// aging loop (the dominant pattern on bursty reference streams).
		return
	}
	base := (i / m.ways) * m.ways
	for j := base; j < base+m.ways; j++ {
		if m.age[j] < old {
			m.age[j]++
		}
	}
	m.age[i] = 0
}

// Lookup returns the state of the block, or Invalid if absent, counting a
// hit or miss and updating recency on hits.
func (m *AM) Lookup(block uint64) State {
	if i := m.find(block); i >= 0 {
		m.stats.Hits++
		m.touch(i)
		return m.state[i]
	}
	m.stats.Misses++
	return Invalid
}

// Probe returns the state of the block without statistics or recency
// side effects.
func (m *AM) Probe(block uint64) State {
	if i := m.find(block); i >= 0 {
		return m.state[i]
	}
	return Invalid
}

// ProbeSet returns the state of the block, like Probe, together with how
// many slots of its set are valid — both from one scan of the set. The
// invariant checker uses it to validate a block's copy and its set's
// occupancy at once.
func (m *AM) ProbeSet(block uint64) (s State, occupied int) {
	b := m.BlockAddr(block)
	base := m.setBase(b)
	for i := base; i < base+m.ways; i++ {
		if st := m.state[i]; st != Invalid {
			occupied++
			if m.tags[i] == b {
				s = st
			}
		}
	}
	return s, occupied
}

// SetState changes the state of a resident block; it panics if the block is
// absent (protocol bookkeeping bug).
func (m *AM) SetState(block uint64, s State) {
	i := m.find(block)
	if i < 0 {
		panic(fmt.Sprintf("mem: SetState(%#x, %v) on absent block", block, s))
	}
	if s == Invalid {
		panic("mem: use Invalidate to remove a block")
	}
	m.state[i] = s
}

// Invalidate removes the block if present, returning its prior state
// (Invalid if absent).
func (m *AM) Invalidate(block uint64) State {
	i := m.find(block)
	if i < 0 {
		return Invalid
	}
	m.stats.Invalidates++
	s := m.state[i]
	m.state[i] = Invalid
	return s
}

// HasFreeWay reports whether block's set has an Invalid slot — the home
// node's injection-acceptance condition (§4.2).
func (m *AM) HasFreeWay(block uint64) bool {
	base := m.setBase(m.BlockAddr(block))
	for i := base; i < base+m.ways; i++ {
		if m.state[i] == Invalid {
			return true
		}
	}
	return false
}

// HasDroppableWay reports whether block's set has an Invalid or Shared slot
// — the forwarded-injection acceptance condition (§4.2). The returned state
// tells which kind was found (Invalid preferred).
func (m *AM) HasDroppableWay(block uint64) (ok bool, kind State) {
	base := m.setBase(m.BlockAddr(block))
	kind = Invalid
	found := false
	for i := base; i < base+m.ways; i++ {
		switch m.state[i] {
		case Invalid:
			return true, Invalid
		case Shared:
			found, kind = true, Shared
		}
	}
	return found, kind
}

// Install places block with the given state, choosing a victim way:
// an Invalid way if available, else the least-recently-used Shared way,
// else the least-recently-used way overall. The displaced block, if any, is
// returned for the protocol layer to drop or inject. Installing a block
// already present just updates its state.
func (m *AM) Install(block uint64, s State) (Victim, bool) {
	b := m.BlockAddr(block)
	if i := m.find(b); i >= 0 {
		m.state[i] = s
		m.touch(i)
		return Victim{}, false
	}
	m.stats.Installs++
	base := m.setBase(b)
	way := -1
	// Pass 1: an Invalid slot.
	for i := base; i < base+m.ways; i++ {
		if m.state[i] == Invalid {
			way = i
			break
		}
	}
	// Pass 2: the LRU Shared slot (cheap to drop).
	if way < 0 {
		var bestAge uint32
		for i := base; i < base+m.ways; i++ {
			if m.state[i] == Shared && (way < 0 || m.age[i] >= bestAge) {
				way, bestAge = i, m.age[i]
			}
		}
	}
	// Pass 3: the LRU slot overall (master eviction -> injection).
	if way < 0 {
		var bestAge uint32
		for i := base; i < base+m.ways; i++ {
			if way < 0 || m.age[i] >= bestAge {
				way, bestAge = i, m.age[i]
			}
		}
	}
	var v Victim
	evicted := false
	if m.state[way] != Invalid {
		v = Victim{Block: m.tags[way], State: m.state[way]}
		evicted = true
		m.stats.Evictions++
		if v.State.IsMaster() {
			m.stats.MasterEvict++
		}
	}
	m.tags[way] = b
	m.state[way] = s
	// Enter as the oldest so touch ages the whole set (see the same
	// pattern in package cache): without this, installs into Invalid ways
	// would not advance their set-mates' ages.
	m.age[way] = uint32(m.ways)
	m.touch(way)
	return v, evicted
}

// ForEachValid calls f for every valid block with its state, in storage
// order. f must not mutate the AM. Used by machine-wide invariant scans.
func (m *AM) ForEachValid(f func(block uint64, s State)) {
	for i, st := range m.state {
		if st != Invalid {
			f(m.tags[i], st)
		}
	}
}

// Occupancy returns the fraction of all slots holding valid blocks.
func (m *AM) Occupancy() float64 {
	n := 0
	for _, s := range m.state {
		if s != Invalid {
			n++
		}
	}
	return float64(n) / float64(len(m.state))
}

// CountState returns how many blocks are in state s.
func (m *AM) CountState(s State) int {
	n := 0
	for _, st := range m.state {
		if st == s {
			n++
		}
	}
	return n
}
