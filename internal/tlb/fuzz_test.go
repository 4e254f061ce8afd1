package tlb

import (
	"testing"

	"vcoma/internal/addr"
	"vcoma/internal/config"
	"vcoma/internal/prng"
)

// FuzzBufferParity model-checks every buffer organization against the
// Buffer contract with random operation sequences:
//
//   - Access(p) returns hit exactly when Probe(p) held beforehand, and p is
//     present afterwards;
//   - Probe has no side effects;
//   - Invalidate(p) removes p; Flush removes everything;
//   - at most Entries() pages are ever resident;
//   - the access counter matches the number of accesses;
//   - two identically-built buffers fed the same sequence behave
//     identically (replacement is seeded, not nondeterministic);
//   - a fully-associative buffer large enough for the whole working set
//     never evicts: presence matches the exact reference set.
func FuzzBufferParity(f *testing.F) {
	f.Add(uint64(1), uint64(3), uint64(0), uint64(64))
	f.Add(uint64(2), uint64(0), uint64(1), uint64(128))
	f.Add(uint64(3), uint64(2), uint64(2), uint64(200))
	f.Add(uint64(4), uint64(4), uint64(3), uint64(90))
	f.Fuzz(func(t *testing.T, seed, entriesRaw, orgRaw, nRaw uint64) {
		entries := 1 << (entriesRaw % 5) // 1..16
		org := []config.TLBOrg{config.FullyAssoc, config.DirectMapped, config.SetAssoc2, config.SetAssoc4}[orgRaw%4]
		if org == config.SetAssoc2 && entries < 2 || org == config.SetAssoc4 && entries < 4 {
			t.Skip("fewer entries than ways")
		}
		ops := 16 + int(nRaw%512)

		b, err := New(entries, org, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := New(entries, org, 0, seed)
		if err != nil {
			t.Fatal(err)
		}

		rng := prng.New(seed ^ 0xb0ffe4)
		target := 1 + rng.Intn(24)
		distinct := make(map[addr.PageNum]bool)
		for len(distinct) < target {
			distinct[addr.PageNum(rng.Uint64n(1<<20))] = true
		}
		universe := make([]addr.PageNum, 0, len(distinct))
		for p := range distinct {
			universe = append(universe, p)
		}
		exactRef := org == config.FullyAssoc && len(universe) <= entries
		ref := make(map[addr.PageNum]bool) // exact contents when exactRef

		accesses := uint64(0)
		for i := 0; i < ops; i++ {
			p := universe[rng.Intn(len(universe))]
			switch rng.Intn(8) {
			case 0:
				b.Invalidate(p)
				twin.Invalidate(p)
				delete(ref, p)
				if b.Probe(p) {
					t.Fatalf("op %d: page %#x present after Invalidate", i, uint64(p))
				}
			case 1:
				b.Flush()
				twin.Flush()
				ref = make(map[addr.PageNum]bool)
				for _, q := range universe {
					if b.Probe(q) {
						t.Fatalf("op %d: page %#x present after Flush", i, uint64(q))
					}
				}
			default:
				before := b.Probe(p)
				if again := b.Probe(p); again != before {
					t.Fatalf("op %d: Probe changed state: %v then %v", i, before, again)
				}
				hit := b.Access(p)
				twinHit := twin.Access(p)
				accesses++
				if hit != before {
					t.Fatalf("op %d: Access(%#x) returned hit=%v but Probe said %v", i, uint64(p), hit, before)
				}
				if hit != twinHit {
					t.Fatalf("op %d: identically-seeded twin diverged (hit=%v vs %v)", i, hit, twinHit)
				}
				if !b.Probe(p) {
					t.Fatalf("op %d: page %#x absent immediately after Access", i, uint64(p))
				}
				ref[p] = true
			}
			if resident := countResident(b, universe); resident > entries {
				t.Fatalf("op %d: %d pages resident in a %d-entry buffer", i, resident, entries)
			}
			if exactRef {
				for _, q := range universe {
					if b.Probe(q) != ref[q] {
						t.Fatalf("op %d: FA buffer with no capacity pressure evicted or invented page %#x", i, uint64(q))
					}
				}
			}
		}
		if s := b.Stats(); s.Accesses != accesses || s.Misses > s.Accesses {
			t.Fatalf("stats %+v inconsistent with %d accesses", s, accesses)
		}
	})
}

func countResident(b Buffer, universe []addr.PageNum) int {
	n := 0
	for _, p := range universe {
		if b.Probe(p) {
			n++
		}
	}
	return n
}

// FuzzBankParity checks the residency-mask Bank against one independent
// buffer per spec, built by New with the bank's per-spec seeds, on random
// page streams at both index shifts the machine uses (0 for a node's TLB,
// 5 for a 32-node home DLB):
//
//   - every spec's Stats match its reference buffer's after every access;
//   - the bank's mask agrees with the reference buffers' contents;
//   - DM inclusion: a page resident in DM-n is resident in DM-2n (bit
//     selection from one shift, Hill & Smith 1989).
func FuzzBankParity(f *testing.F) {
	f.Add(uint64(1), uint64(40), uint64(300))
	f.Add(uint64(2), uint64(700), uint64(900))
	f.Add(uint64(3), uint64(1400), uint64(1000))
	f.Add(uint64(4), uint64(5), uint64(64))
	f.Fuzz(func(t *testing.T, seed, universeRaw, nRaw uint64) {
		specs := append(PaperSpecs(),
			Spec{Entries: 32, Org: config.SetAssoc2},
			Spec{Entries: 64, Org: config.SetAssoc4})
		var inclusion [][2]int // bank bits of (DM-n, DM-2n)
		for i, a := range specs {
			for j, b := range specs {
				if a.Org == config.DirectMapped && b.Org == config.DirectMapped && b.Entries == 2*a.Entries {
					inclusion = append(inclusion, [2]int{i, j})
				}
			}
		}
		ops := 16 + int(nRaw%1024)
		for _, shift := range []uint{0, 5} {
			bank, err := NewBank(specs, shift, seed)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]Buffer, len(specs))
			for i, sp := range specs {
				if refs[i], err = New(sp.Entries, sp.Org, shift, seed+uint64(i)*0x9E37); err != nil {
					t.Fatal(err)
				}
			}

			rng := prng.New(seed ^ 0xba4c)
			universe := make([]addr.PageNum, 1+universeRaw%1500)
			for i := range universe {
				universe[i] = addr.PageNum(rng.Uint64n(1 << 20))
			}
			p := universe[0]
			for op := 0; op < ops; op++ {
				if rng.Intn(4) != 0 { // runs of one page, as translation streams have
					p = universe[rng.Intn(len(universe))]
				}
				bank.Access(p)
				for i, sp := range specs {
					refs[i].Access(p)
					if got, want := bank.Misses(sp), refs[i].Stats().Misses; got != want {
						t.Fatalf("shift %d op %d: %v bank misses %d, reference %d", shift, op, sp, got, want)
					}
				}
				if bank.Accesses() != uint64(op+1) {
					t.Fatalf("shift %d op %d: bank counted %d accesses", shift, op, bank.Accesses())
				}
				for _, q := range universe {
					for _, pair := range inclusion {
						if bankHolds(bank, pair[0], q) && !bankHolds(bank, pair[1], q) {
							t.Fatalf("shift %d op %d: page %#x in %v but not in %v", shift, op, uint64(q), specs[pair[0]], specs[pair[1]])
						}
					}
				}
				if op%64 == 0 || op == ops-1 {
					for _, q := range universe {
						for i, sp := range specs {
							if bankHolds(bank, i, q) != refs[i].Probe(q) {
								t.Fatalf("shift %d op %d: %v residency of page %#x: bank %v, reference %v", shift, op, sp, uint64(q), bankHolds(bank, i, q), refs[i].Probe(q))
							}
						}
					}
				}
			}
			for i, sp := range specs {
				if st, _ := bank.Stats(sp); st != refs[i].Stats() {
					t.Fatalf("shift %d: %v bank stats %+v, reference %+v", shift, sp, st, refs[i].Stats())
				}
			}
		}
	})
}

// bankHolds reports whether bank buffer i holds page p.
func bankHolds(b *Bank, i int, p addr.PageNum) bool {
	r := b.res.At(uint64(p))
	return r != nil && *r&(1<<i) != 0
}
