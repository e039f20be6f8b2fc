package addrspace

import (
	"math/rand/v2"
	"testing"
)

// flatCells is the former per-cell residue — one owner per address in a
// flat array grown to need+need/2 — kept verbatim as the test oracle for
// the run-length container.
type flatCells []ID

func (c *flatCells) assign(ext Extent, id ID) {
	if need := ext.End(); int64(len(*c)) < need {
		grown := make([]ID, need+need/2)
		copy(grown, *c)
		*c = grown
	}
	for i := ext.Start; i < ext.End(); i++ {
		(*c)[i] = id
	}
}

func (c flatCells) owner(addr int64) ID {
	if addr < 0 || addr >= int64(len(c)) {
		return 0
	}
	return c[addr]
}

func (c flatCells) holds(id ID, ext Extent) bool {
	if ext.End() > int64(len(c)) {
		return false
	}
	for i := ext.Start; i < ext.End(); i++ {
		if c[i] != id {
			return false
		}
	}
	return true
}

// TestCellRunsVsFlatOracle drives the run-length residue and the flat
// array through identical random stamp histories — small and large
// extents, few owners so runs merge often, enough runs that blocks split
// and cross-block edits happen — and asserts after every phase that the
// owner of every address (out-of-range included) and HoldsData on random
// extents (past the written end included) agree, and that the container
// stays canonical: sorted, no empty blocks, touching runs with different
// owners.
func TestCellRunsVsFlatOracle(t *testing.T) {
	stamps := 20_000
	if testing.Short() {
		stamps = 4_000
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xce11))
		var runs cellRuns
		var flat flatCells
		span := int64(8_000)
		var written int64 // end of the furthest stamp
		owners := 3 + rng.IntN(40)
		check := func(step int) {
			t.Helper()
			if err := runs.verify(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if runs.length != int64(len(flat)) {
				t.Fatalf("seed %d step %d: length %d, oracle %d", seed, step, runs.length, len(flat))
			}
			for a := int64(-3); a < int64(len(flat))+5; a++ {
				if got, want := runs.owner(a), flat.owner(a); got != want {
					t.Fatalf("seed %d step %d: owner(%d) = %d, oracle %d", seed, step, a, got, want)
				}
			}
			for i := 0; i < 2_000; i++ {
				ext := Extent{Start: rng.Int64N(int64(len(flat)) + 64), Size: rng.Int64N(300)}
				var id ID
				if rng.IntN(4) > 0 {
					id = flat.owner(ext.Start)
				} else {
					id = ID(rng.IntN(owners + 1))
				}
				if got, want := runs.holds(id, ext), flat.holds(id, ext); got != want {
					t.Fatalf("seed %d step %d: holds(%d, %v) = %v, oracle %v", seed, step, id, ext, got, want)
				}
			}
		}
		for i := 0; i < stamps; i++ {
			var ext Extent
			switch rng.IntN(20) {
			case 0: // large stamp swallowing many runs
				ext = Extent{Start: rng.Int64N(span), Size: 1 + rng.Int64N(span/3)}
			case 1: // past the written end, leaving a never-written gap
				ext = Extent{Start: written + rng.Int64N(50), Size: 1 + rng.Int64N(20)}
			default:
				ext = Extent{Start: rng.Int64N(span), Size: 1 + rng.Int64N(12)}
			}
			id := ID(1 + rng.IntN(owners))
			runs.assign(ext, id)
			flat.assign(ext, id)
			written = max(written, ext.End())
			if i%(stamps/8) == 0 {
				check(i)
			}
		}
		check(stamps)
	}
}

// TestSpaceResidueMatchesFlat checks the residue through the Space API:
// placements, moves with ghost copies, and removals against a flat
// oracle stamped the same way.
func TestSpaceResidueMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0x5ace))
	s := New(Options{StrictNonOverlap: true, TrackCells: true})
	var flat flatCells
	live := map[ID]Extent{}
	next := ID(1)
	for step := 0; step < 3_000; step++ {
		switch {
		case len(live) < 40 || rng.IntN(3) == 0:
			ext := Extent{Start: rng.Int64N(4_000), Size: 1 + rng.Int64N(64)}
			if s.Place(next, ext) == nil {
				flat.assign(ext, next)
				live[next] = ext
			}
			next++
		case rng.IntN(2) == 0:
			for id, old := range live {
				to := rng.Int64N(4_000)
				if s.Move(id, to) == nil && to != old.Start {
					ext := Extent{Start: to, Size: old.Size}
					flat.assign(ext, id)
					live[id] = ext
				}
				break
			}
		default:
			for id := range live {
				if err := s.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	for a := int64(-1); a <= int64(len(flat)); a++ {
		if got, want := s.CellOwner(a), flat.owner(a); got != want {
			t.Fatalf("CellOwner(%d) = %d, oracle %d", a, got, want)
		}
	}
	for id, ext := range live {
		if !s.HoldsData(id, ext) {
			t.Fatalf("object %d lost its data at %v", id, ext)
		}
	}
}

// BenchmarkStampCells measures one stamp on a residue holding runs live
// runs: the per-move cost a TrackCells space pays.
func BenchmarkStampCells(b *testing.B) {
	const runs = 100_000
	rng := rand.New(rand.NewPCG(3, 0x57a))
	var c cellRuns
	for i := int64(0); i < runs; i++ {
		c.assign(Extent{Start: i * 64, Size: 64}, ID(1+i%7))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.assign(Extent{Start: rng.Int64N(runs*64 - 4096), Size: 64 + rng.Int64N(4032)}, ID(1+rng.IntN(7)))
	}
}
