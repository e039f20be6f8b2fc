// Command benchgate is the CI benchmark-regression gate. It parses `go
// test -bench` output (a file or stdin), checks benchmark ratios against
// limits, and writes a BENCH_<id>.json trajectory record (schema:
// internal/benchfmt) so every CI run leaves a comparable artifact
// instead of a log line that disappears with the job.
//
// The default mode gates churn scaling in live volume:
//
//	go test -run '^$' -bench BenchmarkChurnScaling -benchtime 20000x . | \
//	    benchgate [-in -] [-out BENCH_ci_churn.json]
//	    [-bench BenchmarkChurnScaling] [-small 100000] [-big 1000000]
//	    [-gates amortized=4,checkpointed=4,deamortized=3,fcs=4]
//
// With -scaling, it instead gates parallel scaling of the sharded
// front-end from a `-cpu` sweep: the gated scenario's throughput at
// -procsHigh must be at least -minSpeedup times its throughput at
// -procsLow (ns/op from b.RunParallel is wall-clock per op, so the
// speedup is nsLow/nsHigh), and every scenario×procs point found is
// recorded in the trajectory file:
//
//	go test -run '^$' -bench BenchmarkShardedParallel -cpu 1,2,4,8 \
//	    -benchtime 30000x . | \
//	    benchgate -scaling [-scalingBench BenchmarkShardedParallel]
//	    [-scenario mixed] [-procsLow 1] [-procsHigh 8] [-minSpeedup 4]
//	    [-out BENCH_ci_scaling.json]
//
// With -overhead, it gates the telemetry layer's cost: every
// <variant>/on result of the overhead benchmark must be within
// -maxOverhead (default 1.10, i.e. ≤10% slower) of its <variant>/off
// twin, and a pair missing either half fails:
//
//	go test -run '^$' -bench BenchmarkChurnTelemetry -benchtime 30000x . | \
//	    benchgate -overhead [-overheadBench BenchmarkChurnTelemetry]
//	    [-maxOverhead 1.10] [-out BENCH_ci_overhead.json]
//
// With -batch, it gates what the batched request path buys: the
// perOp lane of the batch benchmark must cost at least
// -minBatchSpeedup times the batch64 lane's ns/op. Run the benchmark
// with -count so each lane has several samples; the gate compares the
// per-lane minima, which cancels shared-runner noise:
//
//	go test -run '^$' -bench BenchmarkBatchChurn -benchtime 2s -count 3 . | \
//	    benchgate -batch [-batchBench BenchmarkBatchChurn]
//	    [-minBatchSpeedup 2] [-out BENCH_ci_batch.json]
//
// With -bytes, it gates the cost of paying real memmoves: every
// <core>/heap result of the backend benchmark must be within
// -maxBytesOverhead (default 1.75) of its <core>/metered twin, so a
// change that silently inflates the physical cost of the cost model's
// "moved volume" unit fails CI:
//
//	go test -run '^$' -bench BenchmarkChurnBackend -benchtime 30000x . | \
//	    benchgate -bytes [-bytesBench BenchmarkChurnBackend]
//	    [-maxBytesOverhead 1.75] [-out BENCH_ci_bytes.json]
//
// With -durable, it gates the price of durability: the wal lane of the
// durable churn benchmark (WAL appends per placement, arena sync +
// group-fsync per checkpoint) must stay within -maxDurableOverhead
// (default 40) of the heap lane over identical churn, and one full WAL
// replay of the 1e5-record log (BenchmarkWALReplay/ops=100000) must
// finish within -maxReplayMs (default 500). Each lane's checkpoints per
// op (its ckpt/op metric) go into the record beside its ns/op:
//
//	go test -run '^$' -bench 'BenchmarkDurableChurn|BenchmarkWALReplay' \
//	    -benchtime 1s . | \
//	    benchgate -durable [-durableBench BenchmarkDurableChurn]
//	    [-replayBench BenchmarkWALReplay/ops=100000]
//	    [-maxDurableOverhead 40] [-maxReplayMs 500]
//	    [-out BENCH_ci_durable.json]
//
// Any gate fails (exit 1) when its ratio is out of bounds or when
// expected results are missing — a silent benchmark rename must not
// pass the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"realloc/internal/benchfmt"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in    = flag.String("in", "-", "bench output to read (- for stdin)")
		out   = flag.String("out", "", "trajectory record to write (empty: mode default; 'none' to skip)")
		bench = flag.String("bench", "BenchmarkChurnScaling", "benchmark family to gate")
		small = flag.Int64("small", 100_000, "small live-cell size")
		big   = flag.Int64("big", 1_000_000, "big live-cell size")
		gates = flag.String("gates", "amortized=4,checkpointed=4,deamortized=3,fcs=4",
			"comma-separated core-or-variant=maxRatio limits")
		scaling       = flag.Bool("scaling", false, "gate parallel scaling of a -cpu sweep instead of churn ratios")
		scalingBench  = flag.String("scalingBench", "BenchmarkShardedParallel", "scaling benchmark family")
		scenario      = flag.String("scenario", "mixed", "scaling scenario the gate applies to")
		procsLow      = flag.Int("procsLow", 1, "baseline GOMAXPROCS of the scaling gate")
		procsHigh     = flag.Int("procsHigh", 8, "contended GOMAXPROCS of the scaling gate")
		minSpeedup    = flag.Float64("minSpeedup", 4, "required procsHigh/procsLow throughput ratio")
		overhead      = flag.Bool("overhead", false, "gate telemetry-on vs telemetry-off churn cost instead of churn ratios")
		overheadBench = flag.String("overheadBench", "BenchmarkChurnTelemetry", "overhead benchmark family")
		maxOverhead   = flag.Float64("maxOverhead", 1.10, "max allowed telemetry-on/telemetry-off ns/op ratio")
		batch         = flag.Bool("batch", false, "gate batched-vs-per-op churn speedup instead of churn ratios")
		batchBench    = flag.String("batchBench", "BenchmarkBatchChurn", "batch speedup benchmark family")
		minBatch      = flag.Float64("minBatchSpeedup", 2, "required perOp/batch64 ns/op speedup")
		bytesMode     = flag.Bool("bytes", false, "gate real-backend (heap) vs metered churn cost instead of churn ratios")
		bytesBench    = flag.String("bytesBench", "BenchmarkChurnBackend", "backend cost benchmark family")
		maxBytes      = flag.Float64("maxBytesOverhead", 1.75, "max allowed heap/metered ns/op ratio per core")
		durable       = flag.Bool("durable", false, "gate durable-mode churn overhead and WAL replay time instead of churn ratios")
		durableBench  = flag.String("durableBench", "BenchmarkDurableChurn", "durable churn benchmark family (heap and wal lanes)")
		replayBench   = flag.String("replayBench", "BenchmarkWALReplay/ops=100000", "WAL replay benchmark result")
		maxDurable    = flag.Float64("maxDurableOverhead", 40, "max allowed wal/heap ns/op ratio")
		maxReplayMs   = flag.Float64("maxReplayMs", 500, "max allowed ms per full WAL replay")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		src = f
	}
	results, err := benchfmt.ParseBench(src)
	if err != nil {
		return fail(err)
	}

	if *scaling {
		return runScaling(results, *scalingBench, *scenario, *procsLow, *procsHigh, *minSpeedup,
			defaultOut(*out, "BENCH_ci_scaling.json"))
	}
	if *overhead {
		return runOverhead(results, *overheadBench, *maxOverhead,
			defaultOut(*out, "BENCH_ci_overhead.json"))
	}
	if *batch {
		return runBatch(results, *batchBench, *minBatch,
			defaultOut(*out, "BENCH_ci_batch.json"))
	}
	if *bytesMode {
		return runBytes(results, *bytesBench, *maxBytes,
			defaultOut(*out, "BENCH_ci_bytes.json"))
	}
	if *durable {
		return runDurable(results, *durableBench, *replayBench, *maxDurable, *maxReplayMs,
			defaultOut(*out, "BENCH_ci_durable.json"))
	}
	*out = defaultOut(*out, "BENCH_ci_churn.json")

	limits, order, err := parseGates(*gates)
	if err != nil {
		return fail(err)
	}

	findings := map[string]float64{}
	bad := false
	for _, variant := range order {
		limit := limits[variant]
		smallNs, err1 := benchfmt.NsPerOp(results, fmt.Sprintf("%s/%s/cells=%d", *bench, variant, *small))
		bigNs, err2 := benchfmt.NsPerOp(results, fmt.Sprintf("%s/%s/cells=%d", *bench, variant, *big))
		if err1 != nil || err2 != nil || smallNs <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: missing benchmark data for %s (%v, %v)\n", variant, err1, err2)
			bad = true
			continue
		}
		ratio := bigNs / smallNs
		findings[variant+"_ns_per_op_small"] = smallNs
		findings[variant+"_ns_per_op_big"] = bigNs
		findings[variant+"_ratio"] = ratio
		findings[variant+"_ratio_limit"] = limit
		status := "ok"
		if ratio > limit {
			status = fmt.Sprintf("FAIL (limit %g)", limit)
			bad = true
		}
		fmt.Printf("%s: %de5-cells=%.0fns/op %de5-cells=%.0fns/op ratio=%.2f %s\n",
			variant, *small/100_000, smallNs, *big/100_000, bigNs, ratio, status)
	}

	if err := writeRecord(*out, "ci_churn", "CI churn-scaling gate",
		fmt.Sprintf("per-op churn cost stays near-flat from %d to %d live cells", *small, *big),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: ratio regression (or missing data) — see above")
		return 1
	}
	return 0
}

// runScaling is the -scaling mode: every scenario×procs point of the
// sweep lands in the trajectory findings (keyed scenario/p<procs>/ns_per_op
// and scenario/speedup_p<low>_p<high>), and the gated scenario's
// high-procs speedup must clear minSpeedup.
func runScaling(results []benchfmt.Result, family, scenario string, procsLow, procsHigh int, minSpeedup float64, out string) int {
	findings := map[string]float64{}
	scenarios := map[string]bool{}
	prefix := family + "/"
	for _, r := range results {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		sc := strings.TrimPrefix(r.Name, prefix)
		scenarios[sc] = true
		findings[fmt.Sprintf("%s/p%d/ns_per_op", sc, r.Procs)] = r.NsPerOp
	}
	if len(scenarios) == 0 {
		return fail(fmt.Errorf("no %s/* results in the input", family))
	}
	for sc := range scenarios {
		low, err1 := benchfmt.NsPerOpAt(results, prefix+sc, procsLow)
		high, err2 := benchfmt.NsPerOpAt(results, prefix+sc, procsHigh)
		if err1 != nil || err2 != nil || high <= 0 {
			continue
		}
		findings[fmt.Sprintf("%s/speedup_p%d_p%d", sc, procsLow, procsHigh)] = low / high
	}

	bad := false
	gateKey := fmt.Sprintf("%s/speedup_p%d_p%d", scenario, procsLow, procsHigh)
	speedup, ok := findings[gateKey]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchgate: missing %s results at %d and/or %d procs — a renamed benchmark must not pass the gate\n",
			prefix+scenario, procsLow, procsHigh)
		bad = true
	} else {
		findings[gateKey+"_min"] = minSpeedup
		status := "ok"
		if speedup < minSpeedup {
			status = fmt.Sprintf("FAIL (min %g)", minSpeedup)
			bad = true
		}
		fmt.Printf("%s: %d-proc vs %d-proc speedup %.2fx %s\n", scenario, procsHigh, procsLow, speedup, status)
	}
	names := make([]string, 0, len(scenarios))
	for sc := range scenarios {
		if sc != scenario {
			names = append(names, sc)
		}
	}
	sort.Strings(names)
	for _, sc := range names {
		if v, ok := findings[fmt.Sprintf("%s/speedup_p%d_p%d", sc, procsLow, procsHigh)]; ok {
			fmt.Printf("%s: %d-proc vs %d-proc speedup %.2fx (informational)\n", sc, procsHigh, procsLow, v)
		}
	}

	if err := writeRecord(out, "ci_scaling", "CI parallel-scaling gate",
		fmt.Sprintf("sharded %s throughput at %d procs is >= %gx its %d-proc throughput", scenario, procsHigh, minSpeedup, procsLow),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: scaling regression (or missing data) — see above")
		return 1
	}
	return 0
}

// runOverhead is the -overhead mode: the benchmark family holds
// <variant>/off and <variant>/on twins over an identical churn stream;
// every variant's on/off ns/op ratio must stay within maxRatio, and a
// variant with only one half of the pair fails the gate outright.
func runOverhead(results []benchfmt.Result, family string, maxRatio float64, out string) int {
	prefix := family + "/"
	variants := map[string]bool{}
	for _, r := range results {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		if v, _, ok := strings.Cut(strings.TrimPrefix(r.Name, prefix), "/"); ok {
			variants[v] = true
		}
	}
	if len(variants) == 0 {
		return fail(fmt.Errorf("no %s/* results in the input", family))
	}
	order := make([]string, 0, len(variants))
	for v := range variants {
		order = append(order, v)
	}
	sort.Strings(order)

	findings := map[string]float64{}
	bad := false
	for _, v := range order {
		offNs, err1 := benchfmt.NsPerOp(results, prefix+v+"/off")
		onNs, err2 := benchfmt.NsPerOp(results, prefix+v+"/on")
		if err1 != nil || err2 != nil || offNs <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: incomplete on/off pair for %s (%v, %v)\n", v, err1, err2)
			bad = true
			continue
		}
		ratio := onNs / offNs
		findings[v+"/ns_per_op_off"] = offNs
		findings[v+"/ns_per_op_on"] = onNs
		findings[v+"/overhead_ratio"] = ratio
		findings[v+"/overhead_limit"] = maxRatio
		status := "ok"
		if ratio > maxRatio {
			status = fmt.Sprintf("FAIL (limit %g)", maxRatio)
			bad = true
		}
		fmt.Printf("%s: off=%.0fns/op on=%.0fns/op overhead=%.2fx %s\n", v, offNs, onNs, ratio, status)
	}

	if err := writeRecord(out, "ci_overhead", "CI telemetry-overhead gate",
		fmt.Sprintf("telemetry-on churn stays within %gx of telemetry-off per variant", maxRatio),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: telemetry overhead regression (or missing data) — see above")
		return 1
	}
	return 0
}

// runBatch is the -batch mode: the batch benchmark family holds a
// perOp lane (the sequential Insert/Delete loop) and a batch64 lane
// (the same ops through Apply in 64-op groups); the speedup
// perOpNs/batch64Ns must clear minSpeedup. Each lane's ns/op is the
// minimum across -count repeats (benchfmt.MinNsPerOp), so one noisy
// sample cannot flip the gate either way; a missing lane fails it.
func runBatch(results []benchfmt.Result, family string, minSpeedup float64, out string) int {
	perOp, err1 := benchfmt.MinNsPerOp(results, family+"/perOp")
	batch64, err2 := benchfmt.MinNsPerOp(results, family+"/batch64")
	if err1 != nil || err2 != nil || batch64 <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: missing %s lane data (%v, %v) — a renamed benchmark must not pass the gate\n",
			family, err1, err2)
		return 1
	}
	speedup := perOp / batch64
	findings := map[string]float64{
		"per_op_ns_per_op":  perOp,
		"batch64_ns_per_op": batch64,
		"speedup":           speedup,
		"speedup_min":       minSpeedup,
	}
	bad := false
	status := "ok"
	if speedup < minSpeedup {
		status = fmt.Sprintf("FAIL (min %g)", minSpeedup)
		bad = true
	}
	fmt.Printf("batch: perOp=%.0fns/op batch64=%.0fns/op speedup=%.2fx %s\n",
		perOp, batch64, speedup, status)

	if err := writeRecord(out, "ci_batch", "CI batched-submission gate",
		fmt.Sprintf("64-op batches through Apply cost <= 1/%gx of the same churn submitted per op", minSpeedup),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: batch speedup regression (or missing data) — see above")
		return 1
	}
	return 0
}

// runBytes is the -bytes mode: the backend benchmark family holds
// <core>/metered and <core>/heap twins over an identical churn stream;
// every core's heap/metered ns/op ratio must stay within maxRatio —
// the price of physically memmoving payload bytes instead of counting
// them — and a core with only one half of the pair fails the gate.
func runBytes(results []benchfmt.Result, family string, maxRatio float64, out string) int {
	prefix := family + "/"
	cores := map[string]bool{}
	for _, r := range results {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		if c, _, ok := strings.Cut(strings.TrimPrefix(r.Name, prefix), "/"); ok {
			cores[c] = true
		}
	}
	if len(cores) == 0 {
		return fail(fmt.Errorf("no %s/* results in the input", family))
	}
	order := make([]string, 0, len(cores))
	for c := range cores {
		order = append(order, c)
	}
	sort.Strings(order)

	findings := map[string]float64{}
	bad := false
	for _, c := range order {
		meteredNs, err1 := benchfmt.NsPerOp(results, prefix+c+"/metered")
		heapNs, err2 := benchfmt.NsPerOp(results, prefix+c+"/heap")
		if err1 != nil || err2 != nil || meteredNs <= 0 {
			fmt.Fprintf(os.Stderr, "benchgate: incomplete metered/heap pair for %s (%v, %v)\n", c, err1, err2)
			bad = true
			continue
		}
		ratio := heapNs / meteredNs
		findings[c+"/ns_per_op_metered"] = meteredNs
		findings[c+"/ns_per_op_heap"] = heapNs
		findings[c+"/bytes_ratio"] = ratio
		findings[c+"/bytes_limit"] = maxRatio
		status := "ok"
		if ratio > maxRatio {
			status = fmt.Sprintf("FAIL (limit %g)", maxRatio)
			bad = true
		}
		fmt.Printf("%s: metered=%.0fns/op heap=%.0fns/op cost=%.2fx %s\n", c, meteredNs, heapNs, ratio, status)
	}

	if err := writeRecord(out, "ci_bytes", "CI real-backend cost gate",
		fmt.Sprintf("churn on the heap arena (real memmoves) stays within %gx of the metered backend per core", maxRatio),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: real-backend cost regression (or missing data) — see above")
		return 1
	}
	return 0
}

// runDurable is the -durable mode: the durable churn family holds a
// heap lane (in-memory arena, real memmoves) and a wal lane (the same
// churn in durable mode — WAL appends per placement, arena sync plus
// group-fsync per checkpoint); their ns/op ratio must stay within
// maxRatio, and each lane's ckpt/op metric is recorded beside its
// ns/op. The replay result is one full wal.Open rebuild of a
// 1e5-record log and must finish within maxReplayMs. Either half, or a
// lane's ckpt/op, missing fails the gate.
func runDurable(results []benchfmt.Result, family, replay string, maxRatio, maxReplayMs float64, out string) int {
	findings := map[string]float64{}
	bad := false

	heapNs, err1 := benchfmt.NsPerOp(results, family+"/heap")
	walNs, err2 := benchfmt.NsPerOp(results, family+"/wal")
	if err1 != nil || err2 != nil || heapNs <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: incomplete heap/wal pair for %s (%v, %v)\n", family, err1, err2)
		bad = true
	} else {
		ratio := walNs / heapNs
		findings["churn/ns_per_op_heap"] = heapNs
		findings["churn/ns_per_op_wal"] = walNs
		for _, lane := range []string{"heap", "wal"} {
			v, err := benchfmt.Metric(results, family+"/"+lane, "ckpt/op")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
				bad = true
				continue
			}
			findings["churn/ckpt_per_op_"+lane] = v
		}
		findings["churn/durable_ratio"] = ratio
		findings["churn/durable_limit"] = maxRatio
		status := "ok"
		if ratio > maxRatio {
			status = fmt.Sprintf("FAIL (limit %g)", maxRatio)
			bad = true
		}
		fmt.Printf("durable churn: heap=%.0fns/op wal=%.0fns/op cost=%.2fx %s\n", heapNs, walNs, ratio, status)
	}

	replayNs, err := benchfmt.NsPerOp(results, replay)
	if err != nil || replayNs <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: missing %s result (%v) — a renamed benchmark must not pass the gate\n", replay, err)
		bad = true
	} else {
		ms := replayNs / 1e6
		findings["replay/ms_per_100k_ops"] = ms
		findings["replay/ms_limit"] = maxReplayMs
		status := "ok"
		if ms > maxReplayMs {
			status = fmt.Sprintf("FAIL (limit %gms)", maxReplayMs)
			bad = true
		}
		fmt.Printf("wal replay: %.1fms per 1e5 logged ops %s\n", ms, status)
	}

	if err := writeRecord(out, "ci_durable", "CI durability gate",
		fmt.Sprintf("durable churn stays within %gx of the heap backend; 1e5-record WAL replay under %gms", maxRatio, maxReplayMs),
		findings); err != nil {
		return fail(err)
	}
	if bad {
		fmt.Fprintln(os.Stderr, "benchgate: durability regression (or missing data) — see above")
		return 1
	}
	return 0
}

// defaultOut resolves the -out flag: empty takes the mode default, the
// literal "none" skips the record (writeRecord treats "" as skip).
func defaultOut(out, def string) string {
	switch out {
	case "":
		return def
	case "none":
		return ""
	default:
		return out
	}
}

// writeRecord persists one trajectory record; out == "" skips.
func writeRecord(out, id, title, claim string, findings map[string]float64) error {
	if out == "" {
		return nil
	}
	manifest := benchfmt.CurrentManifest()
	rec := benchfmt.Record{
		ID:        id,
		Title:     title,
		Claim:     claim,
		Timestamp: time.Now().UTC(),
		GoVersion: manifest.GoVersion,
		Findings:  findings,
		Manifest:  manifest,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: wrote %s\n", out)
	return nil
}

// parseGates parses "a=4,b=3" into limits, preserving order for output.
func parseGates(spec string) (map[string]float64, []string, error) {
	limits := map[string]float64{}
	var order []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, nil, fmt.Errorf("benchgate: bad gate %q (want variant=limit)", part)
		}
		limit, err := strconv.ParseFloat(val, 64)
		if err != nil || limit <= 0 {
			return nil, nil, fmt.Errorf("benchgate: bad gate limit %q", part)
		}
		limits[name] = limit
		order = append(order, name)
	}
	if len(order) == 0 {
		return nil, nil, fmt.Errorf("benchgate: no gates given")
	}
	return limits, order, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	return 1
}
