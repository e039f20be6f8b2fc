package main

import (
	"time"

	"realloc"
	"realloc/internal/addrspace"
	"realloc/internal/engine"
	"realloc/internal/telemetry"
)

// alloc-churn: a plain Reallocator (default core and variant, ε=0.25,
// HeapArena) held at 256 KiB of live Pareto-sized objects. The small
// live volume keeps the engine's heap near 5 MB and makes every 1/40th
// of the timed phase insert ~15x the live volume, so each round runs the
// whole flush cadence and rounds are comparable (see rounds).
const (
	churnLive  = 256 << 10
	churnMin   = 16
	churnMax   = 16 << 10
	churnAlpha = 1.2
	// churnWarm is the churn after prefill that brings flushes to their
	// steady cadence before anything is measured.
	churnWarm = 1 << 19
	// churnRate sizes the timed phase: ops per second of --seconds.
	churnRate = 600_000
)

// churnGen is the alloc-churn op stream. It decides from its own
// bookkeeping, never from the system's answers, so one seed yields one
// stream against any target: a group of 64 Insert+Write while live
// volume is below target, else 64 verified Reads of random victims
// followed by their 64 Deletes.
type churnGen struct {
	liveSet
	next int64
}

func newChurnGen(cfg config) *churnGen {
	return &churnGen{liveSet: liveSet{rng: cfg.rng(1)}, next: 1}
}

func (g *churnGen) insert() obj {
	o := obj{id: g.next, size: boundedPareto(g.rng, churnMin, churnMax, churnAlpha)}
	g.next++
	g.objs = append(g.objs, o)
	g.volume += o.size
	return o
}

// churnTarget is what the stream drives: the plain facade, or — in the
// traced run — the engine with no facade in front of it.
type churnTarget interface {
	Insert(id, size int64) error
	Write(id int64, p []byte) error
	Read(id int64, p []byte) (int, error)
	Delete(id int64) error
	Footprint() int64
	Volume() int64
	CheckInvariants() error
}

type engineTarget struct{ e engine.Engine }

func (t engineTarget) Insert(id, size int64) error { return t.e.Insert(addrspace.ID(id), size) }
func (t engineTarget) Write(id int64, p []byte) error {
	return t.e.Write(addrspace.ID(id), p)
}
func (t engineTarget) Read(id int64, p []byte) (int, error) {
	return t.e.Read(addrspace.ID(id), p)
}
func (t engineTarget) Delete(id int64) error  { return t.e.Delete(addrspace.ID(id)) }
func (t engineTarget) Footprint() int64       { return t.e.Footprint() }
func (t engineTarget) Volume() int64          { return t.e.Volume() }
func (t engineTarget) CheckInvariants() error { return t.e.CheckInvariants() }

// churnLoop runs the stream against one target.
type churnLoop struct {
	gen    *churnGen
	t      churnTarget
	res    *result
	buf    []byte
	batch  [group]obj
	ph     phase
	writes samples
	reads  samples
	// wAcc and wN accumulate write groups into one write sample.
	wAcc time.Duration
	wN   int
	// inserted is the payload volume inserted; ampSum/ampN average
	// Footprint/Volume sampled after every group.
	inserted int64
	ampSum   float64
	ampN     int64
}

func newChurnLoop(cfg config, t churnTarget, res *result) *churnLoop {
	return &churnLoop{gen: newChurnGen(cfg), t: t, res: res, buf: make([]byte, group*churnMax)}
}

func (d *churnLoop) slot(i int, size int64) []byte {
	return d.buf[i*churnMax : i*churnMax+int(size)]
}

// step runs one group.
func (d *churnLoop) step() {
	if d.gen.volume < churnLive {
		for i := range d.batch {
			o := d.gen.insert()
			d.batch[i] = o
			payload(d.slot(i, o.size), uint64(o.id))
		}
		t0 := time.Now()
		for i, o := range d.batch {
			d.res.check(d.t.Insert(o.id, o.size), "insert")
			d.res.check(d.t.Write(o.id, d.slot(i, o.size)), "write")
		}
		el := time.Since(t0)
		d.write(el)
		d.ph.add(el, group)
		for _, o := range d.batch {
			d.inserted += o.size
		}
	} else {
		for i := range d.batch {
			d.batch[i] = d.gen.victim()
		}
		t0 := time.Now()
		for i, o := range d.batch {
			if n, err := d.t.Read(o.id, d.slot(i, o.size)); err != nil || int64(n) != o.size {
				d.res.fail("read %d: n=%d err=%v", o.id, n, err)
			}
		}
		el := time.Since(t0)
		d.reads.add(el, group)
		d.ph.add(el, 0)
		for i, o := range d.batch {
			if !verify(d.slot(i, o.size), uint64(o.id)) {
				d.res.fail("payload mismatch on object %d", o.id)
			}
		}
		t0 = time.Now()
		for _, o := range d.batch {
			d.res.check(d.t.Delete(o.id), "delete")
		}
		el = time.Since(t0)
		d.write(el)
		d.ph.add(el, 2*group)
	}
	d.ampSum += float64(d.t.Footprint()) / float64(d.t.Volume())
	d.ampN++
}

// write accumulates one timed group of 64 writes. A write sample covers
// two groups: an insert group and a delete group cost differently per
// call, and the stream mostly alternates them, so two-group samples
// keep p50 off the gap between the two modes.
func (d *churnLoop) write(el time.Duration) {
	d.wAcc += el
	d.wN += group
	if d.wN == 2*group {
		d.writes.add(d.wAcc, d.wN)
		d.wAcc, d.wN = 0, 0
	}
}

// prefill fills to the target volume and churns until flushes run at
// their steady cadence.
func (d *churnLoop) prefill() {
	for d.gen.volume < churnLive {
		d.step()
	}
	for d.ph.ops < churnWarm+int64(len(d.gen.objs)) {
		d.step()
	}
}

// measure resets the phase counters and runs n requests.
func (d *churnLoop) measure(n int64) {
	d.ph, d.inserted, d.ampSum, d.ampN = phase{}, 0, 0, 0
	d.wAcc, d.wN = 0, 0
	d.writes, d.reads = newSamples(n/group), newSamples(n/group)
	inRounds(n, func() int64 { return d.ph.ops }, d.step, &d.ph, &d.writes, &d.reads)
}

// verifyAll reads back every live object and runs the structure's own
// invariant check.
func (d *churnLoop) verifyAll() {
	for _, o := range d.gen.objs {
		p := d.slot(0, o.size)
		if n, err := d.t.Read(o.id, p); err != nil || int64(n) != o.size || !verify(p, uint64(o.id)) {
			d.res.fail("final read-back of object %d: n=%d err=%v", o.id, n, err)
		}
	}
	d.res.check(d.t.CheckInvariants(), "CheckInvariants")
}

func newChurnFacade(opts ...realloc.Option) (*realloc.Reallocator, error) {
	base := []realloc.Option{
		realloc.WithCore(realloc.CorePODS14),
		realloc.WithEpsilon(0.25),
		realloc.WithBackend(realloc.HeapArena),
	}
	return realloc.New(append(base, opts...)...)
}

func runChurn(cfg config) (*result, error) {
	res := newResult()
	n := cfg.ops(churnRate)

	var d *churnLoop
	var f *realloc.Reallocator
	setup, err := timeSetups(cfg.setups, func() error {
		var err error
		if f, err = newChurnFacade(); err != nil {
			return err
		}
		d = newChurnLoop(cfg, f, res)
		d.prefill()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.endToEnd["setup_s"] = setup
	res.counts["setup_ops"] = d.ph.ops

	_, alloc0 := heapStats()
	moved0 := f.BytesMoved()
	d.measure(n)
	alloc1 := totalAlloc()
	liveMB, _ := heapStats()
	d.verifyAll()

	res.attempted = d.ph.ops
	res.counts["phase_ops"] = d.ph.ops
	res.endToEnd["ops_per_s"] = d.ph.opsPerSec()
	res.rounds["ops_per_s"] = d.ph.rates
	res.latencies("write", d.writes)
	res.latencies("read", d.reads)
	res.endToEnd["space_amp"] = d.ampSum / float64(d.ampN)
	res.endToEnd["move_amp"] = float64(f.BytesMoved()-moved0) / float64(d.inserted)
	res.endToEnd["alloc_bytes_per_op"] = float64(alloc1-alloc0) / float64(d.ph.ops)
	res.endToEnd["live_heap_mb"] = liveMB
	if !cfg.trace {
		return res, nil
	}

	// Traced run: the same stream through a facade with telemetry and
	// an observer armed, then straight into the engine.
	untraced := d.ph
	reg := telemetry.NewRegistry()
	tr := &tracer{timing: true}
	tf, err := newChurnFacade(realloc.WithTelemetry(reg), realloc.WithObserver(tr.observe))
	if err != nil {
		return nil, err
	}
	td := newChurnLoop(cfg, tf, res)
	td.prefill()
	traceFacade(res, tf, reg, tr, untraced, func() phase {
		td.measure(n)
		return td.ph
	})
	td.verifyAll()

	e, err := newHeapEngine()
	if err != nil {
		return nil, err
	}
	ed := newChurnLoop(cfg, engineTarget{e}, res)
	ed.prefill()
	heapStats()
	ed.measure(n)
	ed.verifyAll()
	engineLayers(res, untraced, ed.ph)
	return res, nil
}
