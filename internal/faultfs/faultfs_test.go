package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestMemFSDurabilityModel(t *testing.T) {
	fs := NewMemFS(nil)
	f, err := fs.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// Unsynced writes are volatile: a crash discards them.
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("unsynced write survived crash: size %d", sz)
	}
	// Synced writes are durable.
	if _, err := g.WriteAt([]byte("world"), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("XYZ"), 5); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	h, _ := fs.OpenFile("a")
	buf := make([]byte, 8)
	n, err := h.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "world" {
		t.Fatalf("durable image %q, want %q", buf[:n], "world")
	}
	// Stale handles fail after the crash.
	if _, err := g.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle write: %v", err)
	}
	if err := g.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("stale handle sync: %v", err)
	}
}

func TestInjectorCrashAtWrite(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: CrashAtWrite, N: 2}))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("one"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("two"), 3); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("write 2: %v", err)
	}
	// Wedged: everything after fails.
	if _, err := f.WriteAt([]byte("three"), 6); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after wedge: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after wedge: %v", err)
	}
	if !fs.Injector().Wedged() {
		t.Fatal("injector not wedged")
	}
	// The faulted write never reached even the volatile image.
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("size after crash: %d", sz)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: TornWrite, N: 2, TearBytes: 3}))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ABCDEF"), 4); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn write: %v", err)
	}
	fs.Crash()
	g, _ := fs.OpenFile("a")
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if !bytes.Equal(buf[:n], []byte("baseABC")) {
		t.Fatalf("durable image %q, want %q", buf[:n], "baseABC")
	}
}

func TestTornWriteAfterDropPersistsNothing(t *testing.T) {
	// Once a sync has been dropped the platter is frozen: a later torn
	// write must degenerate to a plain crash, not smuggle a fragment
	// into the durable image past the dropped syncs.
	fs := NewMemFS(NewInjector(
		Fault{Kind: DropSync, N: 1},
		Fault{Kind: TornWrite, N: 2, TearBytes: 3},
	))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("base"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // dropped
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ABCDEF"), 4); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("torn write after drop: %v", err)
	}
	fs.Crash()
	g, _ := fs.OpenFile("a")
	if sz, _ := g.Size(); sz != 0 {
		t.Fatalf("durable size %d, want 0 (nothing since the drop persists)", sz)
	}
}

func TestInjectorDropSyncIsGlobal(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: DropSync, N: 2}))
	a, _ := fs.OpenFile("a")
	b, _ := fs.OpenFile("b")
	if _, err := a.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil { // sync 1: effective
		t.Fatal(err)
	}
	if _, err := a.WriteAt([]byte("AA"), 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil { // sync 2: dropped, silently
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("bb"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil { // sync 3: dropped too — global
		t.Fatal(err)
	}
	if !fs.Injector().Dropping() {
		t.Fatal("injector not dropping")
	}
	fs.Crash()
	ra, _ := fs.OpenFile("a")
	rb, _ := fs.OpenFile("b")
	if sz, _ := ra.Size(); sz != 2 {
		t.Fatalf("a durable size %d, want 2 (post-drop sync must not persist)", sz)
	}
	if sz, _ := rb.Size(); sz != 0 {
		t.Fatalf("b durable size %d, want 0 (drop is global)", sz)
	}
}

func TestInjectorTransientEIO(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: TransientEIO, N: 1}))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first write: %v", err)
	}
	// The retry succeeds and the fault does not re-fire.
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("retried write: %v", err)
	}
	if got := fs.Injector().Fired(); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(7, 100, 10)
	b := RandomPlan(7, 100, 10)
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	if c := RandomPlan(8, 100, 10); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical plans")
		}
	}
}

func TestOSRoundTrip(t *testing.T) {
	fs := OS{Dir: t.TempDir()}
	f, err := fs.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, err := f.Size(); err != nil || sz != 7 {
		t.Fatalf("size %d %v", sz, err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pers" {
		t.Fatalf("read %q", buf)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fs.Dir, "data")); !os.IsNotExist(err) {
		t.Fatalf("file not removed: %v", err)
	}
}

func TestInjectorNoSpace(t *testing.T) {
	fs := NewMemFS(NewInjector(Fault{Kind: NoSpace, N: 2}))
	f, _ := fs.OpenFile("a")
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if _, err := f.WriteAt([]byte("yy"), 1); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second write: %v, want ENOSPC", err)
	}
	// Nothing of the failed write landed, and the fs is not wedged.
	if sz, err := f.Size(); err != nil || sz != 1 {
		t.Fatalf("size after ENOSPC = %d, %v; want 1", sz, err)
	}
	if fs.Injector().Wedged() {
		t.Fatal("ENOSPC wedged the fs")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after ENOSPC: %v", err)
	}
	if got := fs.Injector().Fired(); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}
}
