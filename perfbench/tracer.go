package main

import (
	"fmt"
	"sort"
	"time"

	"realloc"
	"realloc/internal/arena"
	"realloc/internal/engine"
	"realloc/internal/telemetry"
	"realloc/internal/trace"
)

// tracer taps the placement event stream: the facades' observer hook
// and the block store's recorder feed the same counters. It counts
// moves and moved bytes and, when timing is on (the traced run), spans
// each flush from its start event to its end event.
type tracer struct {
	timing     bool
	moves      int64
	movedBytes int64
	flushT0    time.Time
	flushMs    []float64
	flushBusy  time.Duration
}

func (t *tracer) move(size int64) {
	t.moves++
	t.movedBytes += size
}

func (t *tracer) flushStart() {
	if t.timing {
		t.flushT0 = time.Now()
	}
}

func (t *tracer) flushEnd() {
	if t.timing {
		d := time.Since(t.flushT0)
		t.flushBusy += d
		t.flushMs = append(t.flushMs, float64(d.Nanoseconds())/1e6)
	}
}

// observe is the facades' WithObserver hook.
func (t *tracer) observe(e realloc.Event) {
	switch e.Kind {
	case realloc.EventMove:
		t.move(e.Size)
	case realloc.EventFlushStart:
		t.flushStart()
	case realloc.EventFlushEnd:
		t.flushEnd()
	}
}

// Record is the block store's trace.Recorder tap.
func (t *tracer) Record(e trace.Event) {
	switch e.Kind {
	case trace.KMove:
		t.move(e.Size)
	case trace.KFlushStart:
		t.flushStart()
	case trace.KFlushEnd:
		t.flushEnd()
	}
}

// mark returns the counters so a phase can report deltas.
func (t *tracer) mark() (moves, movedBytes int64, flushes int, busy time.Duration) {
	return t.moves, t.movedBytes, len(t.flushMs), t.flushBusy
}

// flushLayer stores the addrspace flush figures of the spans recorded
// since mark.
func (t *tracer) flushLayer(r *result, fromFlush int, fromBusy time.Duration, busy time.Duration) {
	sorted := append([]float64(nil), t.flushMs[fromFlush:]...)
	sort.Float64s(sorted)
	r.perLayer["addrspace.flush_ms_p50"] = quantile(sorted, 0.50)
	r.perLayer["addrspace.flush_ms_p99"] = quantile(sorted, 0.99)
	r.perLayer["addrspace.flush_share"] = (t.flushBusy - fromBusy).Seconds() / busy.Seconds()
	r.counts["flush_samples"] = int64(len(sorted))
}

// newHeapEngine builds the engine both facades run by default, with no
// facade in front: PODS14, Amortized, ε=0.25, on a heap arena.
func newHeapEngine() (engine.Engine, error) {
	data, err := arena.New(arena.Heap)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(engine.Config{Core: engine.PODS14, Variant: engine.Amortized, Epsilon: 0.25, Arena: data})
	if err != nil {
		return nil, fmt.Errorf("engine.New: %w", err)
	}
	return e, nil
}

// facadeCounters are the facade counters the traced figures read.
type facadeCounters interface {
	Flushes() int64
	BytesMoved() int64
}

// traceFacade runs measure — the timed phase on a facade built with the
// registry and the tracer's observer — and stores the layer figures both
// facades share.
func traceFacade(res *result, f facadeCounters, reg *telemetry.Registry, tr *tracer, untraced phase, measure func() phase) {
	heapStats()
	var snap0, snap1 telemetry.Snapshot
	reg.ReadSnapshot(&snap0)
	flushes0, moved0 := f.Flushes(), f.BytesMoved()
	moves0, _, flush0, busy0 := tr.mark()
	ph := measure()
	reg.ReadSnapshot(&snap1)

	ops := float64(ph.ops)
	res.perLayer["telemetry.overhead"] = untraced.opsPerSec()/ph.opsPerSec() - 1
	res.perLayer["engine.flushes_per_kop"] = float64(f.Flushes()-flushes0) / ops * 1000
	res.perLayer["engine.moves_per_op"] = float64(tr.moves-moves0) / ops
	movedBytes := float64(f.BytesMoved() - moved0)
	res.perLayer["arena.bytes_moved_per_op"] = movedBytes / ops
	tr.flushLayer(res, flush0, busy0, ph.busy)
	copyNs := float64(snap1.FlushCopy.Sum - snap0.FlushCopy.Sum)
	res.perLayer["arena.copy_share"] = copyNs / float64(ph.busy.Nanoseconds())
	if copyNs > 0 {
		res.perLayer["arena.copy_gb_per_s"] = movedBytes / copyNs
	}
	if groups := snap1.BatchSize.Count - snap0.BatchSize.Count; groups > 0 {
		res.perLayer["batch.ops_per_lock"] = float64(snap1.BatchSize.Sum-snap0.BatchSize.Sum) / float64(groups)
	}
}

// engineLayers splits the untraced facade time per request into the
// engine's share, measured by replaying the same stream into the engine
// alone, and the facade's remainder.
func engineLayers(res *result, untraced, replay phase) {
	engineNs := float64(replay.busy.Nanoseconds()) / float64(replay.ops)
	res.perLayer["engine.ns_per_op"] = engineNs
	res.perLayer["facade.ns_per_op"] = float64(untraced.busy.Nanoseconds())/float64(untraced.ops) - engineNs
}
