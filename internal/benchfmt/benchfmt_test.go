package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: realloc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkChurnScaling/amortized/cells=100000         	   20000	      1719 ns/op	      11 B/op	       0 allocs/op
BenchmarkChurnScaling/amortized/cells=1000000-8      	   20000	      2823 ns/op	       8 B/op	       0 allocs/op
BenchmarkChurnScaling/deamortized/cells=1000000-16   	   20000	      4158.5 ns/op
BenchmarkDurableChurn/heap-2   	   20000	     36000 ns/op	         0.02300 ckpt/op	    1500 B/op	      12 allocs/op
some unrelated line
BenchmarkNot-A-Result garbage
PASS
`

func TestParseBench(t *testing.T) {
	results, err := ParseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkChurnScaling/amortized/cells=100000" || r.Iters != 20000 ||
		r.NsPerOp != 1719 || r.BytesPerOp != 11 || r.AllocsPerOp != 0 {
		t.Fatalf("result 0: %+v", r)
	}
	// -8 / -16 GOMAXPROCS suffixes strip; dashes inside names survive.
	if results[1].Name != "BenchmarkChurnScaling/amortized/cells=1000000" {
		t.Fatalf("result 1 name: %q", results[1].Name)
	}
	if results[2].Name != "BenchmarkChurnScaling/deamortized/cells=1000000" {
		t.Fatalf("result 2 name: %q", results[2].Name)
	}
	if results[2].BytesPerOp != -1 || results[2].AllocsPerOp != -1 || results[2].Metrics != nil {
		t.Fatalf("result 2 should have no -benchmem or custom columns: %+v", results[2])
	}
	// b.ReportMetric columns parse by unit beside the -benchmem ones.
	if r := results[3]; r.BytesPerOp != 1500 || r.AllocsPerOp != 12 {
		t.Fatalf("result 3 -benchmem columns: %+v", r)
	}
	if v, err := Metric(results, "BenchmarkDurableChurn/heap", "ckpt/op"); err != nil || v != 0.023 {
		t.Fatalf("Metric ckpt/op: %v %v", v, err)
	}
	if _, err := Metric(results, "BenchmarkDurableChurn/heap", "fsync/op"); err == nil {
		t.Fatal("absent metric found")
	}
	if _, err := Metric(results, "BenchmarkMissing", "ckpt/op"); err == nil {
		t.Fatal("metric of a missing benchmark found")
	}
	if ns, err := NsPerOp(results, "BenchmarkChurnScaling/deamortized/cells=1000000"); err != nil || ns != 4158.5 {
		t.Fatalf("NsPerOp: %v %v", ns, err)
	}
	if _, err := NsPerOp(results, "BenchmarkMissing"); err == nil {
		t.Fatal("missing benchmark found")
	}
	// Proc counts: absent suffix means 1 proc; -8 and -16 parse out.
	if results[0].Procs != 1 || results[1].Procs != 8 || results[2].Procs != 16 {
		t.Fatalf("procs: got %d/%d/%d, want 1/8/16",
			results[0].Procs, results[1].Procs, results[2].Procs)
	}
}

func TestSplitProcs(t *testing.T) {
	cases := map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkX-8":           {"BenchmarkX", 8},
		"BenchmarkX":             {"BenchmarkX", 1},
		"BenchmarkX-8a":          {"BenchmarkX-8a", 1},
		"BenchmarkA/b=1-128":     {"BenchmarkA/b=1", 128},
		"BenchmarkTrailingDash-": {"BenchmarkTrailingDash-", 1},
	}
	for in, want := range cases {
		if name, procs := splitProcs(in); name != want.name || procs != want.procs {
			t.Errorf("splitProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestNsPerOpAt covers the -cpu sweep lookup the scaling gate uses: the
// same stripped name resolved at distinct proc counts.
func TestNsPerOpAt(t *testing.T) {
	sweep := `BenchmarkShardedParallel/mixed       	  30000	       800.0 ns/op
BenchmarkShardedParallel/mixed-8     	  30000	       100.0 ns/op
`
	results, err := ParseBench(strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	one, err := NsPerOpAt(results, "BenchmarkShardedParallel/mixed", 1)
	if err != nil || one != 800 {
		t.Fatalf("at 1 proc: %v %v", one, err)
	}
	eight, err := NsPerOpAt(results, "BenchmarkShardedParallel/mixed", 8)
	if err != nil || eight != 100 {
		t.Fatalf("at 8 procs: %v %v", eight, err)
	}
	if _, err := NsPerOpAt(results, "BenchmarkShardedParallel/mixed", 4); err == nil {
		t.Fatal("missing proc count found")
	}
}

// TestMinNsPerOp covers the -count repeat lookup the batch gate uses:
// the fastest of a name's samples wins, a single sample passes through,
// and a missing name errors.
func TestMinNsPerOp(t *testing.T) {
	repeats := `BenchmarkBatchChurn/perOp    	 9000000	       250.0 ns/op
BenchmarkBatchChurn/perOp    	 9000000	       240.0 ns/op
BenchmarkBatchChurn/perOp    	 9000000	       260.0 ns/op
BenchmarkBatchChurn/batch64  	25000000	       105.0 ns/op
`
	results, err := ParseBench(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if ns, err := MinNsPerOp(results, "BenchmarkBatchChurn/perOp"); err != nil || ns != 240 {
		t.Fatalf("MinNsPerOp over repeats: %v %v", ns, err)
	}
	if ns, err := MinNsPerOp(results, "BenchmarkBatchChurn/batch64"); err != nil || ns != 105 {
		t.Fatalf("MinNsPerOp single sample: %v %v", ns, err)
	}
	if _, err := MinNsPerOp(results, "BenchmarkBatchChurn/missing"); err == nil {
		t.Fatal("missing benchmark found")
	}
}

func TestCurrentManifest(t *testing.T) {
	m := CurrentManifest()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.GOMAXPROCS < 1 {
		t.Fatalf("incomplete manifest: %+v", m)
	}
}
