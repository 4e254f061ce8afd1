package cache

import (
	"testing"
	"testing/quick"

	"vcoma/internal/config"
)

func wtFLC() *Cache {
	return New(config.CacheConfig{SizeBytes: 256, BlockBytes: 16, Assoc: 1, WriteBack: false})
}

func wbSLC() *Cache {
	return New(config.CacheConfig{SizeBytes: 512, BlockBytes: 32, Assoc: 2, WriteBack: true})
}

func TestReadMissThenHit(t *testing.T) {
	c := wbSLC()
	if r := c.Read(0x100); r.Hit || !r.Allocated {
		t.Fatalf("cold read: %+v", r)
	}
	if r := c.Read(0x10F); !r.Hit { // same 32 B block
		t.Fatalf("same-block read missed: %+v", r)
	}
	if r := c.Read(0x120); r.Hit {
		t.Fatalf("different block hit: %+v", r)
	}
	st := c.Stats()
	if st.ReadHits != 1 || st.ReadMisses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := wtFLC()
	if r := c.Write(0x40); r.Hit || r.Allocated {
		t.Fatalf("WT write miss must not allocate: %+v", r)
	}
	if c.Contains(0x40) {
		t.Fatal("block allocated by WT write miss")
	}
	c.Read(0x40)
	if r := c.Write(0x44); !r.Hit {
		t.Fatalf("write to resident block missed: %+v", r)
	}
	if c.Dirty(0x40) {
		t.Fatal("write-through cache has a dirty line")
	}
	if len(c.Flush()) != 0 {
		t.Fatal("write-through flush produced writebacks")
	}
}

func TestWriteBackAllocateAndEvict(t *testing.T) {
	c := wbSLC() // 8 sets x 2 ways, 32 B blocks: set = (a>>5) & 7
	if r := c.Write(0x0); r.Hit || !r.Allocated {
		t.Fatalf("WB write miss must allocate: %+v", r)
	}
	if !c.Dirty(0x0) {
		t.Fatal("written line not dirty")
	}
	// Two more blocks in set 0 (stride 256 = 8 sets * 32 B).
	c.Read(0x100)
	r := c.Write(0x200) // evicts LRU = 0x0 (dirty)
	if !r.Evicted || r.Victim != 0x0 || !r.VictimDirty {
		t.Fatalf("eviction: %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestLRUOrder(t *testing.T) {
	c := wbSLC()
	c.Read(0x0)   // set 0
	c.Read(0x100) // set 0, second way
	c.Read(0x0)   // touch 0x0: now 0x100 is LRU
	r := c.Read(0x200)
	if !r.Evicted || r.Victim != 0x100 {
		t.Fatalf("LRU eviction picked %#x, want 0x100", r.Victim)
	}
}

func TestInvalidate(t *testing.T) {
	c := wbSLC()
	c.Write(0x40)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if present, _ := c.Invalidate(0x40); present {
		t.Fatal("double invalidate found the block")
	}
}

func TestInvalidateRange(t *testing.T) {
	c := wtFLC() // 16 B blocks
	for a := uint64(0x100); a < 0x140; a += 16 {
		c.Read(a)
	}
	dirty := c.InvalidateRange(0x100, 64) // an AM-block worth
	if len(dirty) != 0 {
		t.Fatalf("WT cache returned dirty blocks: %v", dirty)
	}
	for a := uint64(0x100); a < 0x140; a += 16 {
		if c.Contains(a) {
			t.Fatalf("block %#x survived range invalidation", a)
		}
	}

	wb := wbSLC()
	wb.Write(0x100)
	wb.Read(0x120)
	dirty = wb.InvalidateRange(0x100, 64)
	if len(dirty) != 1 || dirty[0] != 0x100 {
		t.Fatalf("dirty blocks: %v", dirty)
	}
}

func TestFlushReturnsDirty(t *testing.T) {
	c := wbSLC()
	c.Write(0x0)
	c.Read(0x20)
	c.Write(0x40)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %d dirty blocks, want 2", len(dirty))
	}
	if c.OccupiedLines() != 0 {
		t.Fatal("flush left valid lines")
	}
}

func TestValidBlocks(t *testing.T) {
	c := wbSLC()
	c.Read(0x0)
	c.Write(0x40)
	got := c.ValidBlocks()
	if len(got) != 2 {
		t.Fatalf("valid blocks: %v", got)
	}
	buf := make([]uint64, 1, 8)
	buf = c.AppendValidBlocks(buf)
	if len(buf) != 3 || buf[1] != got[0] || buf[2] != got[1] {
		t.Fatalf("AppendValidBlocks onto one element: %v, want [0 %v...]", buf, got)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := wbSLC() // 16 lines
		for i, a := range addrs {
			if i%3 == 0 {
				c.Write(uint64(a))
			} else {
				c.Read(uint64(a))
			}
		}
		return c.OccupiedLines() <= 16
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessedBlockAlwaysResidentAfterwards(t *testing.T) {
	// Property: immediately after a read (or a write in a write-back
	// cache), the block is resident.
	err := quick.Check(func(addrs []uint16, writes []bool) bool {
		c := wbSLC()
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if w {
				c.Write(uint64(a))
			} else {
				c.Read(uint64(a))
			}
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissCountsStable(t *testing.T) {
	// Repeating the same scan over a cache larger than the footprint
	// produces no further misses.
	c := wbSLC()
	for a := uint64(0); a < 512; a += 32 {
		c.Read(a)
	}
	before := c.Stats().Misses()
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 512; a += 32 {
			c.Read(a)
		}
	}
	if c.Stats().Misses() != before {
		t.Fatalf("warm scans missed: %d -> %d", before, c.Stats().Misses())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unvalidated config")
		}
	}()
	New(config.CacheConfig{SizeBytes: 96, BlockBytes: 32, Assoc: 1})
}
