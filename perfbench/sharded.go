package main

import (
	"time"

	"realloc"
	"realloc/internal/addrspace"
	"realloc/internal/shardhash"
	"realloc/internal/telemetry"
)

// sharded-mixed: a 2-shard ShardedReallocator (RebalanceInline,
// HeapArena) holding 256 KiB of 8–256 B objects (~2k objects, a ~2 MB
// heap that stays in the core's private cache, so the router, locks and
// read path are measured rather than contended DRAM latency). One call in four is an
// Apply of 64 Insert/Delete ops; the other three read 64 live objects.
const (
	shardCount = 2
	shardLive  = 256 << 10
	shardMin   = 8
	shardMax   = 256
	// shardSkew is the share of new ids whose hash home is shard 0.
	// Deletes are uniform over live objects, so shard 0 settles near
	// 80% of the volume — past the rebalancer's 1.5 max/mean trigger —
	// and the router keeps migrating objects and carrying overrides.
	shardSkew = 0.8
	shardWarm = 1 << 20
	shardRate = 1_400_000
	// readCalls is how many 64-read calls follow each Apply.
	readCalls = 3
)

type shardGen struct {
	liveSet
	next int64
}

// newID returns the next unused id whose hash home is the shard the
// skew draws.
func (g *shardGen) newID() int64 {
	want := 1
	if g.rng.Float64() < shardSkew {
		want = 0
	}
	for shardhash.Home(g.next, shardCount) != want {
		g.next++
	}
	g.next++
	return g.next - 1
}

// shardTarget is what the stream drives: the sharded facade, or the
// engine directly in the traced replay.
type shardTarget interface {
	Apply(b realloc.Batch) []error
	Write(id int64, p []byte) error
	Read(id int64, p []byte) (int, error)
	Footprint() int64
	Volume() int64
	CheckInvariants() error
}

// engineGroup adapts an engine to shardTarget through ApplyGroup.
type engineGroup struct {
	engineTarget
	ops  []addrspace.Op
	errs []error
}

func (t *engineGroup) Apply(b realloc.Batch) []error {
	t.ops = t.ops[:0]
	for _, op := range b {
		t.ops = append(t.ops, addrspace.Op{ID: addrspace.ID(op.ID), Size: op.Size, Del: op.Kind == realloc.OpDelete})
	}
	clear(t.errs)
	t.e.ApplyGroup(t.ops, t.errs)
	for _, err := range t.errs {
		if err != nil {
			return t.errs
		}
	}
	return nil
}

type shardLoop struct {
	gen      *shardGen
	t        shardTarget
	res      *result
	buf      []byte
	batch    realloc.Batch
	ins      []obj
	objs     [group]obj
	ph       phase
	writes   samples
	reads    samples
	inserted int64
	ampSum   float64
	ampN     int64
}

func newShardLoop(cfg config, t shardTarget, res *result) *shardLoop {
	return &shardLoop{
		gen: &shardGen{liveSet: liveSet{rng: cfg.rng(2)}, next: 1}, t: t, res: res,
		buf: make([]byte, group*shardMax), batch: make(realloc.Batch, 0, group),
	}
}

func (d *shardLoop) slot(i int, size int64) []byte {
	return d.buf[i*shardMax : i*shardMax+int(size)]
}

// cycle runs one Apply (plus the Writes filling the objects it
// inserted, timed as part of the same write sample) and readCalls
// groups of 64 verified Reads.
func (d *shardLoop) cycle() {
	d.batch, d.ins = d.batch[:0], d.ins[:0]
	for len(d.batch) < group {
		if d.gen.volume < shardLive {
			o := obj{id: d.gen.newID(), size: shardMin + d.gen.rng.Int64N(shardMax-shardMin+1)}
			d.gen.volume += o.size
			payload(d.slot(len(d.ins), o.size), uint64(o.id))
			d.ins = append(d.ins, o)
			d.batch = append(d.batch, realloc.InsertOp(o.id, o.size))
		} else {
			d.batch = append(d.batch, realloc.DeleteOp(d.gen.victim().id))
		}
	}
	// New objects become victims only from the next batch on: their
	// Writes follow the Apply.
	d.gen.objs = append(d.gen.objs, d.ins...)
	t0 := time.Now()
	errs := d.t.Apply(d.batch)
	for i, o := range d.ins {
		d.res.check(d.t.Write(o.id, d.slot(i, o.size)), "write")
	}
	el := time.Since(t0)
	for _, err := range errs {
		d.res.check(err, "apply")
	}
	d.writes.add(el, 1)
	d.ph.add(el, group)
	for _, o := range d.ins {
		d.inserted += o.size
	}

	for c := 0; c < readCalls; c++ {
		for i := range d.objs {
			d.objs[i] = d.gen.pick()
		}
		t0 := time.Now()
		for i, o := range d.objs {
			if n, err := d.t.Read(o.id, d.slot(i, o.size)); err != nil || int64(n) != o.size {
				d.res.fail("read %d: n=%d err=%v", o.id, n, err)
			}
		}
		el := time.Since(t0)
		d.reads.add(el, group)
		d.ph.add(el, group)
		for i, o := range d.objs {
			if !verify(d.slot(i, o.size), uint64(o.id)) {
				d.res.fail("payload mismatch on object %d", o.id)
			}
		}
	}
	d.ampSum += float64(d.t.Footprint()) / float64(d.t.Volume())
	d.ampN++
}

func (d *shardLoop) prefill() {
	for d.gen.volume < shardLive {
		d.cycle()
	}
	for d.ph.ops < shardWarm {
		d.cycle()
	}
}

func (d *shardLoop) measure(n int64) {
	d.ph, d.inserted, d.ampSum, d.ampN = phase{}, 0, 0, 0
	calls := n / group
	d.writes, d.reads = newSamples(calls/(readCalls+1)+1), newSamples(calls)
	inRounds(n, func() int64 { return d.ph.ops }, d.cycle, &d.ph, &d.writes, &d.reads)
}

func (d *shardLoop) verifyAll() {
	for _, o := range d.gen.objs {
		p := d.slot(0, o.size)
		if n, err := d.t.Read(o.id, p); err != nil || int64(n) != o.size || !verify(p, uint64(o.id)) {
			d.res.fail("final read-back of object %d: n=%d err=%v", o.id, n, err)
		}
	}
	d.res.check(d.t.CheckInvariants(), "CheckInvariants")
}

func newShardFacade(opts ...realloc.Option) (*realloc.ShardedReallocator, error) {
	base := []realloc.Option{
		realloc.WithCore(realloc.CorePODS14),
		realloc.WithEpsilon(0.25),
		realloc.WithShards(shardCount),
		realloc.WithBackend(realloc.HeapArena),
		realloc.WithRebalance(realloc.RebalancePolicy{Mode: realloc.RebalanceInline}),
	}
	return realloc.NewSharded(append(base, opts...)...)
}

func runSharded(cfg config) (*result, error) {
	res := newResult()
	n := cfg.ops(shardRate)

	var d *shardLoop
	var s *realloc.ShardedReallocator
	setup, err := timeSetups(cfg.setups, func() error {
		if s != nil {
			res.check(s.Close(), "Close")
		}
		var err error
		if s, err = newShardFacade(); err != nil {
			return err
		}
		d = newShardLoop(cfg, s, res)
		d.prefill()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.endToEnd["setup_s"] = setup
	res.counts["setup_ops"] = d.ph.ops

	_, alloc0 := heapStats()
	moved0 := s.BytesMoved()
	migr0, _ := s.Migrations()
	d.measure(n)
	alloc1 := totalAlloc()
	liveMB, _ := heapStats()
	migr1, _ := s.Migrations()
	d.verifyAll()
	res.check(s.Close(), "Close")

	res.attempted = d.ph.ops
	res.counts["phase_ops"] = d.ph.ops
	res.endToEnd["ops_per_s"] = d.ph.opsPerSec()
	res.rounds["ops_per_s"] = d.ph.rates
	res.latencies("write", d.writes)
	res.latencies("read", d.reads)
	res.endToEnd["space_amp"] = d.ampSum / float64(d.ampN)
	res.endToEnd["move_amp"] = float64(s.BytesMoved()-moved0) / float64(d.inserted)
	res.endToEnd["alloc_bytes_per_op"] = float64(alloc1-alloc0) / float64(d.ph.ops)
	res.endToEnd["live_heap_mb"] = liveMB
	if !cfg.trace {
		return res, nil
	}

	untraced := d.ph
	reg := telemetry.NewRegistry()
	tr := &tracer{timing: true}
	ts, err := newShardFacade(realloc.WithTelemetry(reg), realloc.WithObserver(tr.observe))
	if err != nil {
		return nil, err
	}
	td := newShardLoop(cfg, ts, res)
	td.prefill()
	traceFacade(res, ts, reg, tr, untraced, func() phase {
		td.measure(n)
		return td.ph
	})
	td.verifyAll()
	res.check(ts.Close(), "Close")
	res.perLayer["router.migrations_per_kop"] = float64(migr1-migr0) / float64(untraced.ops) * 1000

	e, err := newHeapEngine()
	if err != nil {
		return nil, err
	}
	ed := newShardLoop(cfg, &engineGroup{engineTarget: engineTarget{e}, errs: make([]error, group)}, res)
	ed.prefill()
	heapStats()
	ed.measure(n)
	ed.verifyAll()
	engineLayers(res, untraced, ed.ph)
	return res, nil
}
