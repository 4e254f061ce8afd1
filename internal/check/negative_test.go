package check

import (
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/machine"
	"vcoma/internal/mem"
	"vcoma/internal/workload"
)

// settled builds a V-COMA machine preloaded with RADIX at test scale, with
// a checker attached at the given full-scan period and the preload already
// validated clean. It returns one resident block, its virtual address and
// its master node, and a node outside the block's copyset whose AM set has a
// free way (so installing a copy there displaces nothing).
func settled(t *testing.T, scanEvery uint64) (m *machine.Machine, ck *Checker, pb uint64, va addr.Virtual, master, other addr.Node) {
	t.Helper()
	bench, err := workload.ByName("RADIX", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchConfig(config.VCOMA)
	m, err = machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bench.Build(cfg.Geometry, cfg.Geometry.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	ck = Attach(m, scanEvery, 0)
	m.Preload(prog.Layout())
	ck.Settle()
	if err := ck.Err(); err != nil {
		t.Fatalf("clean preload: %v", err)
	}
	prot := m.Protocol()
	for i := 0; i < cfg.Geometry.Nodes(); i++ {
		found := false
		prot.AM(addr.Node(i)).ForEachValid(func(b uint64, s mem.State) {
			if !found && s.IsMaster() {
				pb, master, found = b, addr.Node(i), true
			}
		})
		if found {
			break
		}
	}
	e := prot.Directory().Lookup(pb)
	if e == nil || e.Master != master {
		t.Fatalf("no preloaded master block found")
	}
	for i := 1; i < cfg.Geometry.Nodes(); i++ {
		n := addr.Node((int(master) + i) % cfg.Geometry.Nodes())
		if !e.Holds(n) && prot.AM(n).HasFreeWay(pb) {
			return m, ck, pb, m.VirtualOfProtoBlock(pb), master, n
		}
	}
	t.Fatalf("no non-holder of block %#x has a free way", pb)
	return
}

// firstViolation asserts the checker recorded a violation at reference ref
// whose message contains want.
func firstViolation(t *testing.T, ck *Checker, ref uint64, want string) {
	t.Helper()
	vs := ck.Violations()
	if len(vs) == 0 {
		t.Fatalf("checker recorded no violation, want one mentioning %q", want)
	}
	if vs[0].Ref != ref || !strings.Contains(vs[0].Msg, want) {
		t.Fatalf("first violation %q, want one after ref %d mentioning %q", vs[0], ref, want)
	}
}

// TestCheckerCatchesCorruptedAM mutates attraction memories directly —
// behind the protocol's back, so no sink event marks the block touched —
// and asserts the checker reports each corruption on the very next
// reference. The orphan runs at ScanEvery 1, proving the periodic full
// scan's attraction-memory walk; the others run at ScanEvery 0, so only the
// per-reference checkTouched can see them.
func TestCheckerCatchesCorruptedAM(t *testing.T) {
	t.Run("OrphanNoEntry", func(t *testing.T) {
		m, ck, pb, va, master, other := settled(t, 1)
		prot := m.Protocol()
		// A block of the same set with no directory entry: flip a tag bit
		// far above the workload's footprint.
		orphan := pb ^ 1<<40
		if prot.Directory().Lookup(orphan) != nil {
			t.Fatalf("block %#x unexpectedly has a directory entry", orphan)
		}
		prot.AM(other).Install(orphan, mem.Shared)
		want := "has no directory entry but node"
		if err := prot.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Protocol.CheckInvariants = %v, want the orphan reported", err)
		}
		m.Access(1000, master, va, false)
		firstViolation(t, ck, 1, want)
	})
	t.Run("StrayNonHolder", func(t *testing.T) {
		m, ck, pb, va, master, other := settled(t, 0)
		m.Protocol().AM(other).Install(pb, mem.Shared)
		m.Access(1000, master, va, false)
		firstViolation(t, ck, 1, "presence true disagrees with copyset")
	})
	t.Run("HolderMissingCopy", func(t *testing.T) {
		m, ck, pb, va, master, other := settled(t, 0)
		m.Access(1000, other, va, false)
		if err := ck.Err(); err != nil {
			t.Fatalf("clean remote read: %v", err)
		}
		m.Protocol().AM(other).Invalidate(pb)
		m.Access(2000, master, va, false)
		firstViolation(t, ck, 2, "presence false disagrees with copyset")
	})
	t.Run("SecondMaster", func(t *testing.T) {
		m, ck, pb, va, master, other := settled(t, 0)
		m.Access(1000, other, va, false)
		if err := ck.Err(); err != nil {
			t.Fatalf("clean remote read: %v", err)
		}
		m.Protocol().AM(other).Install(pb, mem.MasterShared)
		m.Access(2000, master, va, false)
		firstViolation(t, ck, 2, "is master but directory says")
	})
}

// TestCheckerScanZeroAlloc gates the checker's steady-state cost: on a
// warmed checked machine, neither the periodic full scan nor the
// per-reference validation of touched blocks may allocate.
func TestCheckerScanZeroAlloc(t *testing.T) {
	bench, err := workload.ByName("RADIX", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunChecked(benchConfig(config.VCOMA), bench, Options{ScanEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	ck := out.Checker
	var blocks []addr.Virtual
	for vb := range ck.Image() {
		if blocks = append(blocks, vb); len(blocks) == 64 {
			break
		}
	}
	if len(blocks) == 0 {
		t.Fatal("run wrote no blocks")
	}
	if n := testing.AllocsPerRun(20, ck.fullScan); n != 0 {
		t.Errorf("fullScan allocates %v times per scan, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, vb := range blocks {
			ck.touch(vb)
		}
		ck.checkTouched()
	}); n != 0 {
		t.Errorf("checkTouched allocates %v times per call, want 0", n)
	}
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}
