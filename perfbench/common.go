package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"realloc/internal/telemetry"
)

// group is the fixed number of calls timed as one latency sample
// wherever a single call is cheaper than a few microseconds: one clock
// pair per 64 calls keeps the timer's own cost and resolution out of
// the per-call figure.
const group = 64

// rounds is how many equal slices of the timed phase are measured on
// their own. ops_per_s and the p50 latencies are taken from the second
// best round (see best): on a shared host, interference only ever slows
// a round down, and it comes in episodes of seconds in which the same
// code runs up to 2x slower, so the fast rounds are the steady estimate
// of what the code itself costs.
const rounds = 40

// config is one invocation of a workload.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	// workdir is a scratch directory inside the checkout for the
	// durable workload's media; it is removed before the run returns.
	workdir string
	// setups is how many times construction plus prefill runs; the
	// median is setup_s and the last instance is measured.
	setups int
	// phaseOps, when non-zero, overrides the timed phase length (tests).
	phaseOps int64
}

// ops returns the timed phase length: a fixed count derived from the
// run length and the workload's nominal rate, never a timer, so one
// seed always yields one op stream.
func (c config) ops(nominalPerSec int64) int64 {
	if c.phaseOps > 0 {
		return c.phaseOps
	}
	return nominalPerSec * int64(c.seconds)
}

func (c config) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

// metric names one figure of a run and its unit.
type metric struct{ name, unit string }

// result is everything a workload run reports.
type result struct {
	attempted int64
	failed    int64
	endToEnd  map[string]float64
	perLayer  map[string]float64
	// counts feeds the manifest: ops per phase and the sample count
	// behind each percentile.
	counts map[string]int64
	// rounds holds the per-round values behind the figures taken over
	// rounds, for the manifest.
	rounds map[string][]float64
	// notes carries one-line diagnostics of failed checks.
	notes []string
}

func newResult() *result {
	return &result{
		endToEnd: map[string]float64{},
		perLayer: map[string]float64{},
		counts:   map[string]int64{},
		rounds:   map[string][]float64{},
	}
}

// fail records a correctness failure: it counts toward error_rate and
// makes the command exit non-zero.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

func (r *result) check(err error, what string) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// samples holds per-call latencies in microseconds; cuts are the
// sample counts at each closed round.
type samples struct {
	v    []float64
	cuts []int
}

func newSamples(capacity int64) samples {
	return samples{v: make([]float64, 0, capacity)}
}

// add records one timed interval covering n calls as its per-call mean.
func (s *samples) add(d time.Duration, n int) {
	s.v = append(s.v, float64(d.Nanoseconds())/float64(n)/1e3)
}

// cut closes the current round.
func (s *samples) cut() { s.cuts = append(s.cuts, len(s.v)) }

// roundP50s is the median of each round that holds samples.
func (s *samples) roundP50s() []float64 {
	var meds []float64
	lo := 0
	for _, hi := range s.cuts {
		if hi > lo {
			meds = append(meds, median(s.v[lo:hi]))
		}
		lo = hi
	}
	return meds
}

func (s *samples) sorted() []float64 {
	c := append([]float64(nil), s.v...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tail is the highest percentile with at least ten samples beyond it:
// the value with exactly ten samples above it, and its percentile.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n <= 10 {
		return quantile(sorted, 1), 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// latencies stores p50, p99 and the tail of s under prefix ("write",
// "read") and records their sample count.
func (r *result) latencies(prefix string, s samples) {
	sorted := s.sorted()
	meds := s.roundP50s()
	r.rounds[prefix+"_p50_us"] = meds
	r.endToEnd[prefix+"_p50_us"] = best(meds, false)
	r.endToEnd[prefix+"_p99_us"] = quantile(sorted, 0.99)
	if prefix == "write" {
		v, pct := tail(sorted)
		r.endToEnd["write_tail_us"] = v
		r.counts["write_tail_pct_x1000"] = int64(math.Round(pct * 1000))
	}
	r.counts[prefix+"_samples"] = int64(len(sorted))
}

// best is the second-best value of v: its second highest when higher is
// better, else its second lowest (0 for no values). The second rather
// than the first, so one round that ran unusually light work cannot set
// the figure alone.
func best(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := min(1, len(s)-1)
	if higherIsBetter {
		i = len(s) - 1 - i
	}
	return s[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// payload fills p with the seeded pattern of key: every object's bytes
// depend on its own key, so a read that returns another object's bytes,
// stale bytes or a torn copy fails verify.
func payload(p []byte, key uint64) {
	x := key * 0x9E3779B97F4A7C15
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		x = mix64(x + 0x9E3779B97F4A7C15)
		if i+8 <= len(p) {
			binary.LittleEndian.PutUint64(p[i:], x)
			continue
		}
		binary.LittleEndian.PutUint64(w[:], x)
		copy(p[i:], w[:])
	}
}

// verify reports whether p holds exactly the pattern payload(p, key).
func verify(p []byte, key uint64) bool {
	x := key * 0x9E3779B97F4A7C15
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		x = mix64(x + 0x9E3779B97F4A7C15)
		if i+8 <= len(p) {
			if binary.LittleEndian.Uint64(p[i:]) != x {
				return false
			}
			continue
		}
		binary.LittleEndian.PutUint64(w[:], x)
		if string(p[i:]) != string(w[:len(p)-i]) {
			return false
		}
	}
	return true
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// boundedPareto draws from a Pareto(alpha) law truncated to [lo, hi].
func boundedPareto(rng *rand.Rand, lo, hi, alpha float64) int64 {
	u := rng.Float64()
	ratio := math.Pow(lo/hi, alpha)
	return int64(lo / math.Pow(1-u*(1-ratio), 1/alpha))
}

// heapStats runs a full collection and returns the live heap in MB and
// the cumulative bytes allocated.
func heapStats() (liveMB float64, totalAlloc uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6, ms.TotalAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// deviceWriteBytes reads write_bytes from /proc/self/io: bytes this
// process caused to be sent to the storage layer.
func deviceWriteBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("perfbench: no write_bytes in /proc/self/io")
}

// phase accumulates the busy time of a timed phase: the sum of every
// timed interval, so the benchmark's own payload generation and
// verification between calls stay out of ops_per_s.
type phase struct {
	busy time.Duration
	ops  int64
	// rates holds the ops/s of each closed round; cutBusy and cutOps
	// are the totals at the last cut.
	rates   []float64
	cutBusy time.Duration
	cutOps  int64
}

func (p *phase) add(el time.Duration, ops int64) {
	p.busy += el
	p.ops += ops
}

// cut closes the current round.
func (p *phase) cut() {
	p.rates = append(p.rates, float64(p.ops-p.cutOps)/(p.busy-p.cutBusy).Seconds())
	p.cutBusy, p.cutOps = p.busy, p.ops
}

// opsPerSec is the second-best round rate.
func (p *phase) opsPerSec() float64 { return best(p.rates, true) }

// inRounds runs step until done reaches n, closing a round of ph and
// of every samples in cut each time done passes another 1/rounds of n.
func inRounds(n int64, done func() int64, step func(), ph *phase, cut ...*samples) {
	for r := int64(1); r <= rounds; r++ {
		for done() < n*r/rounds {
			step()
		}
		ph.cut()
		for _, s := range cut {
			s.cut()
		}
	}
}

type obj struct{ id, size int64 }

// liveSet is a stream's own record of the live objects. It is a slice,
// never a map, so every victim and read target is a function of the
// seed alone.
type liveSet struct {
	rng    *rand.Rand
	objs   []obj
	volume int64
}

// victim removes and returns a uniformly chosen live object.
func (s *liveSet) victim() obj {
	o := takeRandom(s.rng, &s.objs)
	s.volume -= o.size
	return o
}

// pick returns a uniformly chosen live object.
func (s *liveSet) pick() obj { return s.objs[s.rng.IntN(len(s.objs))] }

// takeRandom swap-removes and returns a uniformly chosen element.
func takeRandom[T any](rng *rand.Rand, live *[]T) T {
	l := *live
	i := rng.IntN(len(l))
	v := l[i]
	l[i] = l[len(l)-1]
	*live = l[:len(l)-1]
	return v
}

// histSub removes b's observations from a (b an earlier snapshot of
// the same histogram). Max keeps a's value: quantiles clamp to it.
func histSub(a, b *telemetry.HistSnapshot) {
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	a.Count -= b.Count
	a.Sum -= b.Sum
}

// timeSetups runs build n times and returns the median wall time in
// seconds; the instance built last is the one measured.
func timeSetups(n int, build func() error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < max(1, n); i++ {
		heapStats()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}
