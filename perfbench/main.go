// Command perfbench is the repository's benchmark: four seeded
// closed-loop workloads over the public entry points (Insert/Delete,
// Apply on the sharded facade, Put/Drop/Checkpoint on BlockStore, heap
// and durable), each driven by one client goroutine. Every payload read
// back is verified. With -trace 1 a second, traced pass reports the
// per-layer figures. See README.md for the workloads and the metric map.
//
//	go run . -workload alloc-churn -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

type workload struct {
	name string
	run  func(config) (*result, error)
}

var workloads = []workload{
	{"alloc-churn", runChurn},
	{"sharded-mixed", runSharded},
	{"blocks-heap", runBlocksHeap},
	{"blocks-durable", runBlocksDurable},
}

// gated are the end-to-end metrics of the result line: every workload
// has them, none is ever 0, and their run-to-run spread fits the bounds
// in BENCHMARK.json.
var gated = []metric{
	{"ops_per_s", "1/s"},
	{"write_p50_us", "us"},
	{"read_p50_us", "us"},
	{"space_amp", "ratio"},
	{"move_amp", "ratio"},
	{"setup_s", "s"},
}

// reported are the end-to-end metrics printed on every run and carried
// on the traced line, but not gated. The p99 and tail latencies swing by
// more than any bound allows when the VM stalls for milliseconds;
// alloc_bytes_per_op and live_heap_mb move with the seed in map and
// slice growth steps; the durability figures exist only on the block
// workloads; error_rate is 0 on a correct run.
var reported = []metric{
	{"write_p99_us", "us"},
	{"write_tail_us", "us"},
	{"read_p99_us", "us"},
	{"alloc_bytes_per_op", "B"},
	{"live_heap_mb", "MB"},
	{"ckpt_per_op", "count"},
	{"fsync_per_op", "count"},
	{"write_amp", "ratio"},
	{"recover_ms", "ms"},
	{"error_rate", "ratio"},
}

// layers are the traced run's per-layer metrics.
var layers = []metric{
	{"facade.ns_per_op", "ns"},
	{"engine.ns_per_op", "ns"},
	{"router.migrations_per_kop", "count"},
	{"batch.ops_per_lock", "count"},
	{"engine.flushes_per_kop", "count"},
	{"engine.moves_per_op", "count"},
	{"arena.bytes_moved_per_op", "B"},
	{"addrspace.flush_ms_p50", "ms"},
	{"addrspace.flush_ms_p99", "ms"},
	{"addrspace.flush_share", "ratio"},
	{"arena.copy_share", "ratio"},
	{"arena.copy_gb_per_s", "GB/s"},
	{"arena.device_bytes_per_op", "B"},
	{"btl.ckpt_us_p50", "us"},
	{"btl.ckpt_us_p99", "us"},
	{"btl.forced_ckpt_per_op", "count"},
	{"wal.fsync_us_p50", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.fsync_share", "ratio"},
	{"wal.append_ns", "ns"},
	{"wal.bytes_per_op", "B"},
	{"wal.replay_ms", "ms"},
	{"telemetry.overhead", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "op-stream seed")
	seconds := fs.Int("seconds", 10, "nominal length of the timed phase")
	traced := fs.Int("trace", 0, "1 adds the traced per-layer pass")
	workdir := fs.String("workdir", ".bench_build/perfbench/work", "scratch directory for durable media")
	sha := fs.String("git-sha", "unknown", "commit being measured, for the manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (alloc-churn, sharded-mixed, blocks-heap, blocks-durable), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	dir, err := filepath.Abs(filepath.Join(*workdir, strconv.Itoa(os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, workdir: dir, setups: 5}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.endToEnd["error_rate"] = float64(res.failed) / float64(max(1, res.attempted))

	manifest := map[string]any{
		"git_sha": *sha, "go_version": runtime.Version(), "gomaxprocs": procs,
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"counts": res.counts, "rounds": res.rounds,
	}
	mj, _ := json.Marshal(manifest)
	fmt.Fprintf(stdout, "# manifest %s\n", mj)
	report(stdout, "end-to-end", append(append([]metric(nil), gated...), reported...), res.endToEnd)
	if cfg.trace {
		report(stdout, "per-layer", layers, res.perLayer)
	}
	for _, n := range res.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, n)
	}

	out := map[string]any{}
	if cfg.trace {
		emit(out, append(append([]metric(nil), layers...), reported...), res.perLayer, res.endToEnd)
	} else {
		emit(out, gated, res.endToEnd)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their check\n", w.name, res.failed, res.attempted)
		return 1
	}
	return 0
}

// report prints one human-readable line per metric; a metric the
// workload has no such quantity for reads n/a.
func report(w io.Writer, kind string, ms []metric, values map[string]float64) {
	for _, m := range ms {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(w, "# %s %-26s %.6g %s\n", kind, m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "# %s %-26s n/a\n", kind, m.name)
		}
	}
}

// emit fills the result line: every listed metric, 0 where the workload
// has no such quantity.
func emit(out map[string]any, ms []metric, sources ...map[string]float64) {
	for _, m := range ms {
		v := 0.0
		for _, s := range sources {
			if x, ok := s[m.name]; ok {
				v = x
			}
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
}
