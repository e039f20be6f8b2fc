package btl

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/trace"
)

// fullTable is the former checkpoint snapshot — a rebuild of the whole
// durable map from the name table, the core's extents and the payload
// checksums — kept as the test oracle for the incremental fold.
func fullTable(s *Store) map[addrspace.ID]blockMeta {
	durable := make(map[addrspace.ID]blockMeta, len(s.byName))
	for name, id := range s.byName {
		if ext, ok := s.realloc.Extent(id); ok {
			meta := blockMeta{name: name, ext: ext}
			if sum, ok := s.sums[id]; ok {
				meta.sum, meta.hasSum = sum, true
			}
			durable[id] = meta
		}
	}
	return durable
}

// tableChecker compares the incremental table with the full rebuild at
// every checkpoint the reallocator forces (the store's hook has folded
// by the time the tapped event arrives).
type tableChecker struct {
	t      *testing.T
	s      *Store
	tag    string
	forced int
}

func (c *tableChecker) Record(e trace.Event) {
	if e.Kind != trace.KCheckpoint || c.s == nil {
		return
	}
	c.forced++
	c.check(fmt.Sprintf("forced checkpoint %d", c.forced))
}

func (c *tableChecker) check(when string) {
	c.t.Helper()
	want := fullTable(c.s)
	if len(c.s.durable) != len(want) {
		c.t.Fatalf("%s, %s: incremental table has %d blocks, full rebuild %d", c.tag, when, len(c.s.durable), len(want))
	}
	for id, m := range want {
		if got, ok := c.s.durable[id]; !ok || got != m {
			c.t.Fatalf("%s, %s: block %d is %+v (present %v), full rebuild %+v", c.tag, when, id, got, ok, m)
		}
	}
	if len(c.s.dirty) != 0 {
		c.t.Fatalf("%s, %s: %d dirty ids left after the fold", c.tag, when, len(c.s.dirty))
	}
}

// TestIncrementalTableMatchesFullRebuild drives every mutating entry
// point — Reserve, Put, Update, Drop — with explicit checkpoints between
// reallocator-forced ones and two crash/recover cycles, and requires the
// incremental durable table to equal the full rebuild at every
// checkpoint, for both checkpointed variants on both in-memory backends.
func TestIncrementalTableMatchesFullRebuild(t *testing.T) {
	for _, deam := range []bool{false, true} {
		for _, backend := range []arena.Kind{arena.Metered, arena.Heap} {
			tag := fmt.Sprintf("deamortized=%v backend=%v", deam, backend)
			chk := &tableChecker{t: t, tag: tag}
			s, err := New(Config{Epsilon: 0.25, Deamortized: deam, Backend: backend, Recorder: chk})
			if err != nil {
				t.Fatal(err)
			}
			chk.s = s
			rng := rand.New(rand.NewPCG(11, 0x7ab1e))
			var live []string
			next := 0
			explicit := 0
			for round := 0; round < 3; round++ {
				for step := 0; step < 1_500; step++ {
					switch op := rng.IntN(10); {
					case len(live) < 64 || op < 4:
						name := fmt.Sprintf("b%d", next)
						next++
						size := 1 + rng.IntN(200)
						if op%2 == 0 {
							err = s.Reserve(name, int64(size))
						} else {
							err = s.Put(name, payload(name, size))
						}
						live = append(live, name)
					case op < 6:
						err = s.Update(live[rng.IntN(len(live))], int64(1+rng.IntN(200)))
					default:
						i := rng.IntN(len(live))
						err = s.Drop(live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
					if err != nil {
						t.Fatalf("%s: round %d step %d: %v", tag, round, step, err)
					}
					if rng.IntN(100) == 0 {
						s.Checkpoint()
						explicit++
						chk.check(fmt.Sprintf("explicit checkpoint %d", explicit))
					}
				}
				if round == 2 {
					break
				}
				s.Crash()
				rep, err := s.Recover()
				if err != nil {
					t.Fatalf("%s: recovery %d: %v (corrupt %v)", tag, round+1, err, rep.Corrupt)
				}
				chk.check(fmt.Sprintf("recovery %d", round+1))
				// Blocks created after the last checkpoint are gone.
				live = live[:0]
				for name := range s.byName {
					live = append(live, name)
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s: after recovery %d: %v", tag, round+1, err)
				}
			}
			if chk.forced == 0 || explicit == 0 {
				t.Fatalf("%s: %d forced and %d explicit checkpoints; the test needs both", tag, chk.forced, explicit)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
}

// TestDurableModeKeepsNoShadowTable pins that durable mode, whose WAL is
// the durable map, spends nothing on an in-memory copy of it.
func TestDurableModeKeepsNoShadowTable(t *testing.T) {
	s, err := New(Config{Epsilon: 0.25, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("b%d", i)
		if err := s.Put(name, payload(name, 1+i%50)); err != nil {
			t.Fatal(err)
		}
	}
	s.Checkpoint()
	if s.durable != nil || len(s.dirty) != 0 {
		t.Fatalf("durable mode holds a shadow table of %d blocks and %d dirty ids", len(s.durable), len(s.dirty))
	}
}
