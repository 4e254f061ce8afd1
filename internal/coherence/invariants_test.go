package coherence

import (
	"strings"
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/mem"
)

// TestInvariantViolationsDetected corrupts a consistent protocol state
// directly through the attraction memories (bypassing the directory) and
// asserts that both the machine-wide CheckInvariants and the per-block
// CheckBlock report each corruption with the same message. The orphan
// cases pin the fused scan's attraction-memory walk: the entry pass probes
// only copyset holders, so nothing else sees a copy the directory does not
// list.
func TestInvariantViolationsDetected(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Protocol, b uint64)
		want    string
	}{
		{"OrphanNoEntry", func(p *Protocol, b uint64) {
			p.AM(2).Install(b, mem.Shared)
		}, "has no directory entry but node 2 holds a copy"},
		{"OrphanSwapped", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.AM(1).Invalidate(b)
			e := p.Directory().Lookup(b)
			e.Copyset, e.Swapped = 0, true
			p.AM(2).Install(b, mem.Shared)
		}, "swapped but node 2 holds a copy"},
		{"StrayNonHolder", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.AM(2).Install(b, mem.Shared)
		}, "node 2 presence true disagrees with copyset"},
		{"HolderMissingCopy", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.Access(0, 2, b, false)
			p.AM(2).Invalidate(b)
		}, "node 2 presence false disagrees with copyset"},
		{"SecondMaster", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.Access(0, 2, b, false)
			p.AM(2).Install(b, mem.MasterShared)
		}, "node 2 is master but directory says 1"},
		{"NoMaster", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.Access(0, 2, b, false)
			p.AM(1).Install(b, mem.Shared)
		}, "has 0 masters"},
		{"SharedExclusive", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.Access(0, 2, b, false)
			p.AM(1).Install(b, mem.Exclusive)
		}, "exclusive at node 1 with 2 holders"},
		{"LastCopyDestroyed", func(p *Protocol, b uint64) {
			p.Preload(b, 1)
			p.AM(1).Invalidate(b)
			p.Directory().Lookup(b).Copyset = 0
		}, "last copy destroyed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProtocol(t, nil)
			// A second, untouched resident block keeps the scans honest
			// about more than one entry.
			p.Preload(blockAtHome(3, 1), 0)
			b := p.align(blockAtHome(0, 0))
			tc.corrupt(p, b)

			err := p.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckInvariants = %v, want a violation mentioning %q", err, tc.want)
			}
			states := make([]ProbeState, testGeometry().Nodes())
			for n := range states {
				states[n] = ProbeOf(p.StateAt(addr.Node(n), b))
			}
			err = p.Directory().CheckBlock(b, states)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckBlock = %v, want a violation mentioning %q", err, tc.want)
			}
		})
	}
}
