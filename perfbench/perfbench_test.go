package main

import (
	"testing"
)

// countMetrics are the figures that depend only on the op stream, never
// on timing, so two runs of one seed must agree on them exactly.
var countMetrics = []string{
	"space_amp", "move_amp", "ckpt_per_op", "fsync_per_op",
	"router.migrations_per_kop", "batch.ops_per_lock", "engine.flushes_per_kop",
	"engine.moves_per_op", "arena.bytes_moved_per_op", "btl.forced_ckpt_per_op",
	"wal.bytes_per_op",
}

// phaseOps keeps each workload's timed phase short; blocks count steps.
var phaseOps = map[string]int64{
	"alloc-churn":    40_000,
	"sharded-mixed":  40_000,
	"blocks-heap":    1_000,
	"blocks-durable": 1_000,
}

func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				cfg := config{seed: 42, trace: true, workdir: t.TempDir(), setups: 1, phaseOps: phaseOps[w.name]}
				res, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("run %d: %d failed checks: %v", i, res.failed, res.notes)
				}
				runs[i] = res
			}
			a, b := runs[0], runs[1]
			if a.attempted != b.attempted {
				t.Errorf("attempted %d vs %d", a.attempted, b.attempted)
			}
			for _, name := range countMetrics {
				va, oka := lookup(a, name)
				vb, okb := lookup(b, name)
				if oka != okb || va != vb {
					t.Errorf("%s: %v (%v) vs %v (%v)", name, va, oka, vb, okb)
				}
			}
		})
	}
}

func lookup(r *result, name string) (float64, bool) {
	if v, ok := r.endToEnd[name]; ok {
		return v, true
	}
	v, ok := r.perLayer[name]
	return v, ok
}

func TestPayloadVerify(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 4099} {
		p := make([]byte, n)
		payload(p, 17)
		if !verify(p, 17) {
			t.Fatalf("len %d: pattern does not verify", n)
		}
		if n == 0 {
			continue
		}
		if verify(p, 18) {
			t.Fatalf("len %d: pattern verifies under another key", n)
		}
		p[n-1] ^= 1
		if verify(p, 17) {
			t.Fatalf("len %d: flipped last byte verifies", n)
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i)
	}
	val, pct := tail(v)
	if val != 989 || pct != 99 {
		t.Fatalf("tail = %v at %v%%, want 989 at 99%%", val, pct)
	}
}
