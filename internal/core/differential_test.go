package core

import (
	"math/rand/v2"
	"testing"

	"realloc/internal/addrspace"
	"realloc/internal/trace"
)

// diffOp is one request of a generated differential workload.
type diffOp struct {
	insert bool
	id     ID
	size   int64
}

// diffWorkload generates a random insert/delete churn: grow to roughly
// vol, then churn with uniform victims, with occasional mass-delete bursts
// so flushes trigger from both the insert and the delete path.
func diffWorkload(seed uint64, vol int64, n int) []diffOp {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	var ops []diffOp
	type live struct {
		id   ID
		size int64
	}
	var pop []live
	var cur int64
	next := ID(1)
	for len(ops) < n {
		burst := len(pop) > 8 && rng.IntN(40) == 0
		if burst {
			for k := 0; k < len(pop)/4; k++ {
				i := rng.IntN(len(pop))
				o := pop[i]
				pop[i] = pop[len(pop)-1]
				pop = pop[:len(pop)-1]
				cur -= o.size
				ops = append(ops, diffOp{id: o.id, size: o.size})
			}
			continue
		}
		if cur < vol || len(pop) == 0 || rng.IntN(2) == 0 {
			size := int64(1 + rng.IntN(300))
			ops = append(ops, diffOp{insert: true, id: next, size: size})
			pop = append(pop, live{next, size})
			cur += size
			next++
		} else {
			i := rng.IntN(len(pop))
			o := pop[i]
			pop[i] = pop[len(pop)-1]
			pop = pop[:len(pop)-1]
			cur -= o.size
			ops = append(ops, diffOp{id: o.id, size: o.size})
		}
	}
	return ops
}

// driveDiff runs ops through a fresh reallocator and returns its event log
// and the reallocator itself.
func driveDiff(t *testing.T, variant Variant, serial bool, ops []diffOp) (*Reallocator, *trace.Log) {
	t.Helper()
	log := &trace.Log{}
	r := MustNew(Config{
		Epsilon:     0.25,
		Variant:     variant,
		Recorder:    log,
		TrackCells:  true,
		Paranoid:    true,
		SerialFlush: serial,
	})
	for _, op := range ops {
		var err error
		if op.insert {
			err = r.Insert(op.id, op.size)
		} else {
			err = r.Delete(op.id)
		}
		if err != nil {
			t.Fatalf("%s serial=%v: op %+v: %v", variant, serial, op, err)
		}
	}
	return r, log
}

// TestBatchedSerialEquivalence is the differential property test of the
// batched flush executor: identical random workloads driven through the
// batched path and the per-move reference path must produce identical
// event streams (and therefore identical footprint series), final
// layouts, and stats, for every variant and both substrate rule sets.
func TestBatchedSerialEquivalence(t *testing.T) {
	for _, variant := range []Variant{Amortized, Checkpointed, Deamortized} {
		for seed := uint64(1); seed <= 4; seed++ {
			ops := diffWorkload(seed, 4000, 3000)
			batched, blog := driveDiff(t, variant, false, ops)
			serial, slog := driveDiff(t, variant, true, ops)

			if len(blog.Events) != len(slog.Events) {
				t.Fatalf("%s seed %d: %d batched events vs %d serial", variant, seed, len(blog.Events), len(slog.Events))
			}
			for i := range blog.Events {
				if blog.Events[i] != slog.Events[i] {
					t.Fatalf("%s seed %d: event %d differs:\n batched %+v\n serial  %+v",
						variant, seed, i, blog.Events[i], slog.Events[i])
				}
			}
			compareDiffState(t, variant, seed, batched, serial)

			// Complete any in-progress deamortized flush on both sides and
			// compare the fully drained states too.
			if err := batched.Drain(); err != nil {
				t.Fatalf("%s seed %d: batched drain: %v", variant, seed, err)
			}
			if err := serial.Drain(); err != nil {
				t.Fatalf("%s seed %d: serial drain: %v", variant, seed, err)
			}
			compareDiffState(t, variant, seed, batched, serial)
		}
	}
}

// compareDiffState asserts two reallocators are observably identical:
// layouts, volumes, footprints, and substrate stats.
func compareDiffState(t *testing.T, variant Variant, seed uint64, a, b *Reallocator) {
	t.Helper()
	type placed struct {
		id  ID
		ext addrspace.Extent
	}
	collect := func(r *Reallocator) []placed {
		var out []placed
		r.ForEach(func(id ID, ext addrspace.Extent) { out = append(out, placed{id, ext}) })
		return out
	}
	la, lb := collect(a), collect(b)
	if len(la) != len(lb) {
		t.Fatalf("%s seed %d: layout sizes differ: %d vs %d", variant, seed, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("%s seed %d: layout entry %d differs: %+v vs %+v", variant, seed, i, la[i], lb[i])
		}
	}
	sa, sb := a.Space(), b.Space()
	stats := [][2]int64{
		{a.Volume(), b.Volume()},
		{a.Footprint(), b.Footprint()},
		{a.StructSize(), b.StructSize()},
		{a.Delta(), b.Delta()},
		{a.Flushes(), b.Flushes()},
		{int64(a.Len()), int64(b.Len())},
		{sa.Moves(), sb.Moves()},
		{sa.Places(), sb.Places()},
		{sa.Checkpoints(), sb.Checkpoints()},
		{sa.BlockedWrites(), sb.BlockedWrites()},
		{sa.FreedVolume(), sb.FreedVolume()},
	}
	names := []string{"volume", "footprint", "structsize", "delta", "flushes", "len",
		"moves", "places", "checkpoints", "blockedwrites", "freedvolume"}
	for i, s := range stats {
		if s[0] != s[1] {
			t.Fatalf("%s seed %d: %s differs: batched %d vs serial %d", variant, seed, names[i], s[0], s[1])
		}
	}
}

// ckptTables records, at every checkpoint event, the extent every object
// id has at that instant: the translation table a durability hook would
// write (the block store's snapshot reads exactly this).
type ckptTables struct {
	r      *Reallocator
	maxID  ID
	tables [][]addrspace.Extent
}

func (c *ckptTables) Record(e trace.Event) {
	if e.Kind != trace.KCheckpoint {
		return
	}
	tab := make([]addrspace.Extent, c.maxID+1)
	for id := ID(1); id <= c.maxID; id++ {
		tab[id], _ = c.r.Extent(id)
	}
	c.tables = append(c.tables, tab)
}

// TestCheckpointTablesAgreeAcrossPaths pins what a checkpoint observer
// sees of object positions: every executor must show an object that is
// about to make a blocking move at its source, where its bytes still are.
// Identical workloads through the per-move reference path (SerialFlush),
// the bulk executor (the atomic Checkpointed flush) and the chunked
// session (the Deamortized flush) must produce identical tables at every
// checkpoint.
func TestCheckpointTablesAgreeAcrossPaths(t *testing.T) {
	for _, variant := range []Variant{Checkpointed, Deamortized} {
		for seed := uint64(1); seed <= 3; seed++ {
			ops := diffWorkload(seed, 2000, 1500)
			var maxID ID
			for _, op := range ops {
				maxID = max(maxID, op.id)
			}
			run := func(serial bool) *ckptTables {
				rec := &ckptTables{maxID: maxID}
				rec.r = MustNew(Config{
					Epsilon: 0.25, Variant: variant, Recorder: rec,
					TrackCells: true, SerialFlush: serial,
				})
				for _, op := range ops {
					var err error
					if op.insert {
						err = rec.r.Insert(op.id, op.size)
					} else {
						err = rec.r.Delete(op.id)
					}
					if err != nil {
						t.Fatalf("%s serial=%v: op %+v: %v", variant, serial, op, err)
					}
				}
				return rec
			}
			serial, batched := run(true), run(false)
			if len(serial.tables) == 0 {
				t.Fatalf("%s seed %d: workload took no checkpoints", variant, seed)
			}
			if len(serial.tables) != len(batched.tables) {
				t.Fatalf("%s seed %d: %d checkpoints serial vs %d batched", variant, seed, len(serial.tables), len(batched.tables))
			}
			for k := range serial.tables {
				for id := range serial.tables[k] {
					if a, b := serial.tables[k][id], batched.tables[k][id]; a != b {
						t.Fatalf("%s seed %d: checkpoint %d: object %d at %v serial, %v batched",
							variant, seed, k, id, a, b)
					}
				}
			}
		}
	}
}
