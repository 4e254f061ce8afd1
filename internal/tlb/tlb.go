// Package tlb implements the translation buffers of the paper: per-node TLBs
// (schemes L0–L3) and the home-node DLB of V-COMA. Both map virtual page
// numbers to a translation (frame number or directory page) and differ only
// in where they sit and what request stream they see, so one set of models
// serves both.
//
// The paper's default organization is fully associative with random
// replacement (§5.1); direct-mapped variants are the "/DM" systems of
// Figure 9. A Bank measures many sizes and organizations from a single
// simulated request stream (Figures 8 and 9, Tables 2 and 3): a per-page
// mask of the buffers holding the page answers all of them with one lookup,
// and only the buffers that miss do replacement work.
package tlb

import (
	"fmt"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// Stats counts buffer activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// Hits returns Accesses - Misses.
func (s Stats) Hits() uint64 { return s.Accesses - s.Misses }

// MissRatio returns Misses/Accesses, or 0 for an untouched buffer.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Buffer is a translation buffer. Access touches the buffer with a page
// number, fills the entry on a miss, and reports whether it hit.
type Buffer interface {
	// Access looks up page p, filling the entry on a miss (the service
	// itself is charged by the caller). Returns true on a hit.
	Access(p addr.PageNum) bool
	// Probe reports whether p is present without changing any state.
	Probe(p addr.PageNum) bool
	// Invalidate removes p if present (address-mapping change, §2.2.1).
	Invalidate(p addr.PageNum)
	// Flush empties the buffer, keeping statistics.
	Flush()
	// Stats returns the access/miss counters.
	Stats() Stats
	// Entries returns the configured capacity.
	Entries() int
}

// New builds a buffer of the given size and organization. indexShift is the
// number of low page-number bits skipped when computing a set index: 0 for
// a private TLB; the node-bit count for a home-node DLB, whose resident
// pages all share their low (home) bits and would otherwise collide into a
// single set.
func New(entries int, org config.TLBOrg, indexShift uint, seed uint64) (Buffer, error) {
	f, err := newFrames(entries, org, indexShift, seed)
	if err != nil {
		return nil, err
	}
	switch {
	case f.fa:
		return newFullyAssoc(f), nil
	case f.ways == 1:
		return &DirectMapped{frames: f}, nil
	default:
		return &SetAssoc{frames: f}, nil
	}
}

// frames is a buffer's entries and its replacement rule, without a
// residency index. Entries form sets of ways, set-major: a fully
// associative buffer is one set of every entry, a direct-mapped one has
// one-entry sets. The standalone buffers and Bank share it, so each
// organization's victim choice lives in fill alone.
type frames struct {
	tags    []addr.PageNum
	valid   []bool // set organizations; FA's valid entries are tags[:n]
	n       int    // FA: entries filled so far
	fa      bool
	ways    int
	setMask uint64 // sets - 1
	shift   uint
	rng     *prng.Source // nil for direct mapped
}

// newFrames validates a buffer configuration and returns its empty entries.
func newFrames(entries int, org config.TLBOrg, indexShift uint, seed uint64) (frames, error) {
	if entries <= 0 {
		return frames{}, fmt.Errorf("tlb: need at least one entry, got %d", entries)
	}
	switch org {
	case config.FullyAssoc:
		return frames{tags: make([]addr.PageNum, entries), fa: true, ways: entries, rng: prng.New(seed)}, nil
	case config.DirectMapped:
		if entries&(entries-1) != 0 {
			return frames{}, fmt.Errorf("tlb: direct-mapped size %d not a power of two", entries)
		}
		return setFrames(entries, 1, indexShift, nil), nil
	case config.SetAssoc2:
		return newSetFrames(entries, 2, indexShift, seed)
	case config.SetAssoc4:
		return newSetFrames(entries, 4, indexShift, seed)
	default:
		return frames{}, fmt.Errorf("tlb: unknown organization %v", org)
	}
}

func newSetFrames(entries, ways int, indexShift uint, seed uint64) (frames, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return frames{}, fmt.Errorf("tlb: set-assoc size %d not a power of two", entries)
	}
	if ways <= 0 || ways > entries || entries%ways != 0 {
		return frames{}, fmt.Errorf("tlb: %d ways invalid for %d entries", ways, entries)
	}
	return setFrames(entries, ways, indexShift, prng.New(seed)), nil
}

func setFrames(entries, ways int, indexShift uint, rng *prng.Source) frames {
	return frames{
		tags:    make([]addr.PageNum, entries),
		valid:   make([]bool, entries),
		ways:    ways,
		setMask: uint64(entries/ways - 1),
		shift:   indexShift,
		rng:     rng,
	}
}

// setBase returns the first entry of p's set: bit selection from the page
// number after the index shift.
func (f *frames) setBase(p addr.PageNum) int {
	return int((uint64(p)>>f.shift)&f.setMask) * f.ways
}

// fill stores page p, which the caller knows is absent, and returns the
// entry it took and the page it evicted, if any. The victim rule (§5.1):
// a fully associative buffer fills its entries in order, then replaces one
// drawn at random; a set fills its first invalid way, then replaces a
// random way — a direct-mapped set has one way and draws nothing.
func (f *frames) fill(p addr.PageNum) (i int, old addr.PageNum, evicted bool) {
	switch {
	case f.fa:
		if f.n < len(f.tags) {
			i = f.n
			f.n++
		} else {
			i = f.rng.Intn(len(f.tags))
			old, evicted = f.tags[i], true
		}
	case f.ways == 1:
		i = f.setBase(p)
		old, evicted = f.tags[i], f.valid[i]
		f.valid[i] = true
	default:
		base := f.setBase(p)
		end := base + f.ways
		for i = base; i < end && f.valid[i]; i++ {
		}
		if i == end {
			i = base + f.rng.Intn(f.ways)
			old, evicted = f.tags[i], true
		}
		f.valid[i] = true
	}
	f.tags[i] = p
	return i, old, evicted
}

// flush empties every entry.
func (f *frames) flush() {
	f.n = 0
	clear(f.valid)
}

// FullyAssoc is a fully-associative buffer with random replacement.
//
// The residency index is a flat open-addressed table (linear probing,
// backward-shift deletion) instead of a Go map, and the most recent hit is
// memoized: translation streams repeat the same page in bursts, so the
// common case is one compare. The resident pages are tags[:n]; Invalidate
// keeps them a prefix by moving the last one into the hole.
type FullyAssoc struct {
	frames
	stats Stats

	memo   addr.PageNum // last page that hit or filled
	memoOK bool

	// Open-addressed index: keys[i] is resident at slot slotOf[i];
	// slotOf[i] < 0 marks an empty probe cell. Sized to a power of two at
	// most half full, so probe chains stay short.
	keys   []addr.PageNum
	slotOf []int32
	mask   uint64
}

// NewFullyAssoc returns a fully-associative buffer with the given capacity,
// using a deterministic random replacement stream derived from seed.
func NewFullyAssoc(entries int, seed uint64) *FullyAssoc {
	f, err := newFrames(entries, config.FullyAssoc, 0, seed)
	if err != nil {
		panic(err)
	}
	return newFullyAssoc(f)
}

func newFullyAssoc(f frames) *FullyAssoc {
	tab := 8
	for tab < 2*len(f.tags) {
		tab *= 2
	}
	b := &FullyAssoc{
		frames: f,
		keys:   make([]addr.PageNum, tab),
		slotOf: make([]int32, tab),
		mask:   uint64(tab - 1),
	}
	for i := range b.slotOf {
		b.slotOf[i] = -1
	}
	return b
}

func (b *FullyAssoc) home(p addr.PageNum) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> 32 & b.mask
}

// find returns the probe-cell index holding p, or -1.
func (b *FullyAssoc) find(p addr.PageNum) int {
	for i := b.home(p); ; i = (i + 1) & b.mask {
		if b.slotOf[i] < 0 {
			return -1
		}
		if b.keys[i] == p {
			return int(i)
		}
	}
}

// indexPut records that p is resident at slot s.
func (b *FullyAssoc) indexPut(p addr.PageNum, s int) {
	i := b.home(p)
	for b.slotOf[i] >= 0 {
		if b.keys[i] == p {
			b.slotOf[i] = int32(s)
			return
		}
		i = (i + 1) & b.mask
	}
	b.keys[i] = p
	b.slotOf[i] = int32(s)
}

// indexDelete empties probe cell i, backward-shifting any displaced
// followers so linear probing stays sound.
func (b *FullyAssoc) indexDelete(i int) {
	j := uint64(i)
	for {
		b.slotOf[j] = -1
		hole := j
		for {
			j = (j + 1) & b.mask
			if b.slotOf[j] < 0 {
				return
			}
			h := b.home(b.keys[j])
			// Move keys[j] into the hole only if its probe path passes
			// through the hole (cyclic interval test).
			if (j > hole && (h <= hole || h > j)) || (j < hole && h <= hole && h > j) {
				break
			}
		}
		b.keys[hole] = b.keys[j]
		b.slotOf[hole] = b.slotOf[j]
	}
}

// Access implements Buffer.
func (b *FullyAssoc) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	if b.memoOK && p == b.memo {
		return true
	}
	if b.find(p) >= 0 {
		b.memo, b.memoOK = p, true
		return true
	}
	b.stats.Misses++
	s, old, evicted := b.fill(p)
	if evicted {
		b.indexDelete(b.find(old))
	}
	b.indexPut(p, s)
	b.memo, b.memoOK = p, true
	return false
}

// Probe implements Buffer.
func (b *FullyAssoc) Probe(p addr.PageNum) bool {
	return b.find(p) >= 0
}

// Invalidate implements Buffer.
func (b *FullyAssoc) Invalidate(p addr.PageNum) {
	i := b.find(p)
	if i < 0 {
		return
	}
	if b.memoOK && p == b.memo {
		b.memoOK = false
	}
	s := int(b.slotOf[i])
	b.n--
	b.indexDelete(i)
	if s != b.n {
		b.tags[s] = b.tags[b.n]
		b.indexPut(b.tags[s], s)
	}
}

// Flush implements Buffer.
func (b *FullyAssoc) Flush() {
	b.flush()
	b.memoOK = false
	for i := range b.slotOf {
		b.slotOf[i] = -1
	}
}

// Stats implements Buffer.
func (b *FullyAssoc) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *FullyAssoc) Entries() int { return len(b.tags) }

// DirectMapped is a direct-mapped buffer indexed by low page-number bits
// (after indexShift).
type DirectMapped struct {
	frames
	stats Stats
}

// NewDirectMapped returns a direct-mapped buffer with entries slots
// (a power of two), indexing with page-number bits [indexShift,
// indexShift+log2(entries)).
func NewDirectMapped(entries int, indexShift uint) *DirectMapped {
	return &DirectMapped{frames: setFrames(entries, 1, indexShift, nil)}
}

// Access implements Buffer.
func (b *DirectMapped) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	if b.Probe(p) {
		return true
	}
	b.stats.Misses++
	b.fill(p)
	return false
}

// Probe implements Buffer.
func (b *DirectMapped) Probe(p addr.PageNum) bool {
	i := b.setBase(p)
	return b.valid[i] && b.tags[i] == p
}

// Invalidate implements Buffer.
func (b *DirectMapped) Invalidate(p addr.PageNum) {
	if i := b.setBase(p); b.valid[i] && b.tags[i] == p {
		b.valid[i] = false
	}
}

// Flush implements Buffer.
func (b *DirectMapped) Flush() { b.flush() }

// Stats implements Buffer.
func (b *DirectMapped) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *DirectMapped) Entries() int { return len(b.tags) }

// SetAssoc is an n-way set-associative buffer with random replacement,
// generalizing the two organizations above; it backs ablation studies of
// intermediate associativities.
type SetAssoc struct {
	frames
	stats Stats
}

// NewSetAssoc returns a set-associative buffer with the given total entries
// (power of two) and ways (power of two dividing entries).
func NewSetAssoc(entries, ways int, indexShift uint, seed uint64) (*SetAssoc, error) {
	f, err := newSetFrames(entries, ways, indexShift, seed)
	if err != nil {
		return nil, err
	}
	return &SetAssoc{frames: f}, nil
}

// find returns the entry holding p, or -1.
func (b *SetAssoc) find(p addr.PageNum) int {
	base := b.setBase(p)
	for i := base; i < base+b.ways; i++ {
		if b.valid[i] && b.tags[i] == p {
			return i
		}
	}
	return -1
}

// Access implements Buffer.
func (b *SetAssoc) Access(p addr.PageNum) bool {
	b.stats.Accesses++
	if b.find(p) >= 0 {
		return true
	}
	b.stats.Misses++
	b.fill(p)
	return false
}

// Probe implements Buffer.
func (b *SetAssoc) Probe(p addr.PageNum) bool { return b.find(p) >= 0 }

// Invalidate implements Buffer.
func (b *SetAssoc) Invalidate(p addr.PageNum) {
	if i := b.find(p); i >= 0 {
		b.valid[i] = false
	}
}

// Flush implements Buffer.
func (b *SetAssoc) Flush() { b.flush() }

// Stats implements Buffer.
func (b *SetAssoc) Stats() Stats { return b.stats }

// Entries implements Buffer.
func (b *SetAssoc) Entries() int { return len(b.tags) }
