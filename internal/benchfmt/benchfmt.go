// Package benchfmt defines the shared schema of BENCH_<id>.json
// performance-trajectory files and parses `go test -bench` output.
//
// Two producers write these files: cmd/reallocbench (one per experiment
// run) and cmd/benchgate (one per CI benchmark-gate run). Keeping the
// schema here, with a run-level manifest pinning the environment, makes
// records from different PRs comparable: tooling can diff findings across
// a directory of BENCH_*.json files knowing which commit, Go version, and
// parallelism produced each.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Record is the schema of a BENCH_<id>.json trajectory file.
type Record struct {
	ID        string             `json:"id"`
	Title     string             `json:"title"`
	Claim     string             `json:"claim"`
	Seed      uint64             `json:"seed"`
	Ops       int                `json:"ops,omitempty"`
	Core      string             `json:"core,omitempty"`
	Backend   string             `json:"backend,omitempty"`
	Quick     bool               `json:"quick"`
	Timestamp time.Time          `json:"timestamp"`
	GoVersion string             `json:"go_version"`
	Seconds   float64            `json:"seconds"`
	Findings  map[string]float64 `json:"findings"`
	Manifest  Manifest           `json:"manifest"`
}

// Manifest pins the environment of one benchmark run.
type Manifest struct {
	GitSHA     string `json:"git_sha,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentManifest captures the running process's environment. The commit
// comes from GITHUB_SHA (set by CI) or, failing that, from git itself;
// records written outside a repository simply omit it.
func CurrentManifest() Manifest {
	m := Manifest{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		m.GitSHA = sha
		return m
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
	}
	return m
}

// Result is one parsed benchmark result line.
type Result struct {
	Name        string // full name, trailing -GOMAXPROCS suffix stripped
	Procs       int    // the stripped -GOMAXPROCS suffix; 1 when absent
	Iters       int64
	NsPerOp     float64
	BytesPerOp  float64 // -1 when the line carries no -benchmem columns
	AllocsPerOp float64 // -1 when the line carries no -benchmem columns
	// Metrics holds the b.ReportMetric columns by unit (e.g. "ckpt/op");
	// nil when the line carries none.
	Metrics map[string]float64
}

// ParseBench extracts benchmark result lines ("BenchmarkX-8 N ns/op ...")
// from go test -bench output, ignoring everything else.
func ParseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		name, procs := splitProcs(fields[0])
		res := Result{Name: name, Procs: procs, Iters: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[fields[i+1]] = v
			}
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// splitProcs splits off the trailing -N GOMAXPROCS suffix of a benchmark
// name (the name itself may contain dashes, so only a trailing all-digit
// segment goes). Results without a suffix report 1 proc, matching go
// test's convention of omitting -1. A `-cpu 1,2,4,8` sweep produces one
// Result per proc count under the same stripped Name, which is what the
// scaling gate compares.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs < 1 {
		return name, 1
	}
	return name[:i], procs
}

// NsPerOp finds name among results, ignoring the proc count — use
// NsPerOpAt for results of a -cpu sweep, where one name has several
// entries.
func NsPerOp(results []Result, name string) (float64, error) {
	for _, r := range results {
		if r.Name == name {
			return r.NsPerOp, nil
		}
	}
	return 0, fmt.Errorf("benchfmt: no result named %q", name)
}

// Metric finds the custom metric with the given unit on result name.
func Metric(results []Result, name, unit string) (float64, error) {
	for _, r := range results {
		if r.Name == name {
			if v, ok := r.Metrics[unit]; ok {
				return v, nil
			}
			return 0, fmt.Errorf("benchfmt: %q reports no %s", name, unit)
		}
	}
	return 0, fmt.Errorf("benchfmt: no result named %q", name)
}

// MinNsPerOp finds the fastest result for name across a -count repeat
// run. Scheduler and cache noise on shared CI runners is strictly
// additive, so the per-lane minimum is the most stable estimator for
// ratio gates — it converges on the true cost as repeats grow instead
// of wandering with the noise the way a single sample does.
func MinNsPerOp(results []Result, name string) (float64, error) {
	best, found := 0.0, false
	for _, r := range results {
		if r.Name == name && (!found || r.NsPerOp < best) {
			best, found = r.NsPerOp, true
		}
	}
	if !found {
		return 0, fmt.Errorf("benchfmt: no result named %q", name)
	}
	return best, nil
}

// NsPerOpAt finds the result for name at an exact GOMAXPROCS count.
func NsPerOpAt(results []Result, name string, procs int) (float64, error) {
	for _, r := range results {
		if r.Name == name && r.Procs == procs {
			return r.NsPerOp, nil
		}
	}
	return 0, fmt.Errorf("benchfmt: no result named %q at %d procs", name, procs)
}
