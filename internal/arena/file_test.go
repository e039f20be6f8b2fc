package arena

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"syscall"
	"testing"

	"realloc/internal/faultfs"
)

// recordingFile wraps a faultfs.File, recording the byte range of each
// write that lands and failing writes on demand: after `pass` more
// writes succeed, the next `fail` writes return failErr.
type recordingFile struct {
	faultfs.File
	writes     [][2]int64 // off, len
	pass, fail int
	failErr    error
}

func (r *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	if r.pass > 0 {
		r.pass--
	} else if r.fail > 0 {
		r.fail--
		return 0, r.failErr
	}
	n, err := r.File.WriteAt(p, off)
	if err == nil {
		r.writes = append(r.writes, [2]int64{off, int64(len(p))})
	}
	return n, err
}

// pagesOf returns the pages the recorded writes covered.
func (r *recordingFile) pagesOf() map[int64]bool {
	pages := map[int64]bool{}
	for _, w := range r.writes {
		for p := w[0] >> pageShift; p <= (w[0]+w[1]-1)>>pageShift; p++ {
			pages[p] = true
		}
	}
	return pages
}

// checkImage opens a fresh file arena on the named file and compares its
// image with want: byte for byte over want, zeros beyond it.
func checkImage(t *testing.T, fs *faultfs.MemFS, name string, want []byte, ctx string) {
	t.Helper()
	f, err := fs.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := FromFile(f)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	img := r.(*fileArena).mem
	if len(img) < len(want) {
		t.Fatalf("%s: file holds %d bytes, want at least %d", ctx, len(img), len(want))
	}
	if i := firstDiff(img[:len(want)], want); i >= 0 {
		t.Fatalf("%s: file byte %d = %d, want %d", ctx, i, img[i], want[i])
	}
	for i := len(want); i < len(img); i++ {
		if img[i] != 0 {
			t.Fatalf("%s: file byte %d past the written end = %d, want 0", ctx, i, img[i])
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestFileSyncWritesDirtyPages is the property test for dirty-page
// write-back. Random Ensure/Copy/Write/Sync sequences run on FromFile
// over MemFS against a model that applies the same operations to a
// plain byte slice: the image a full write-back at every Sync leaves.
// After every successful Sync a fresh arena on the file must equal the
// model byte for byte, and the pages that Sync wrote must be exactly
// the pages changed since the last successful Sync: never more (the
// write-back is O(changed)) and never fewer, even when earlier Syncs
// failed partway through with EIO or an injected crash. A MemFS crash
// fault, once fired, reboots the fs: the file must then hold the image
// of the last successful Sync.
func TestFileSyncWritesDirtyPages(t *testing.T) {
	var synced, failed, crashed int
	for seed := uint64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xa7e4a))
		var plan []faultfs.Fault
		if seed%3 == 0 {
			plan = append(plan, faultfs.Fault{Kind: faultfs.CrashAtWrite, N: 1 + rng.IntN(40)})
		}
		fs := faultfs.NewMemFS(faultfs.NewInjector(plan...))
		var (
			b     *fileArena
			rf    *recordingFile
			model []byte         // the oracle's image: every op applied
			last  []byte         // the oracle's image at the last successful Sync
			dirty map[int64]bool // pages changed since the last successful Sync
		)
		open := func() {
			f, err := fs.OpenFile("arena")
			if err != nil {
				t.Fatal(err)
			}
			rf = &recordingFile{File: f}
			be, err := FromFile(rf)
			if err != nil {
				t.Fatal(err)
			}
			b = be.(*fileArena)
			b.retryDelay = 0
			dirty = map[int64]bool{}
		}
		open()
		grow := func(n int64) {
			if n > int64(len(model)) {
				model = append(model, make([]byte, n-int64(len(model)))...)
			}
		}
		touch := func(start, size int64) {
			for p := start >> pageShift; size > 0 && p <= (start+size-1)>>pageShift; p++ {
				dirty[p] = true
			}
		}
		const span = 1 << 16
		for op := 0; op < 200; op++ {
			switch k := rng.IntN(10); {
			case k < 1:
				b.Ensure(rng.Int64N(2 * span))
			case k < 4:
				size := rng.Int64N(3 << pageShift)
				dst, src := rng.Int64N(span), rng.Int64N(span)
				b.Copy(dst, src, size)
				grow(max(dst, src) + size)
				copy(model[dst:dst+size], model[src:src+size])
				touch(dst, size)
			case k < 8:
				p := make([]byte, rng.IntN(2<<pageShift))
				for i := range p {
					p[i] = byte(1 + rng.IntN(255))
				}
				start := rng.Int64N(span)
				b.Write(start, p)
				grow(start + int64(len(p)))
				copy(model[start:], p)
				touch(start, int64(len(p)))
			default:
				rf.writes = rf.writes[:0]
				switch rng.IntN(4) {
				case 1: // hard EIO: outlasts the retries
					rf.pass, rf.fail, rf.failErr = rng.IntN(3), 1000, syscall.EIO
				case 2: // transient EIO: one retry succeeds
					rf.pass, rf.fail, rf.failErr = rng.IntN(3), 1, syscall.EIO
				case 3: // a crash reported by the file; the fs stays up
					rf.pass, rf.fail, rf.failErr = rng.IntN(3), 1, faultfs.ErrInjectedCrash
				}
				err := b.Sync()
				rf.pass, rf.fail = 0, 0
				written := rf.pagesOf()
				for p := range written {
					if !dirty[p] {
						t.Fatalf("seed %d op %d: Sync wrote page %d, which did not change", seed, op, p)
					}
				}
				switch {
				case err == nil:
					if len(written) != len(dirty) {
						t.Fatalf("seed %d op %d: Sync wrote %d pages, %d changed", seed, op, len(written), len(dirty))
					}
					dirty = map[int64]bool{}
					last = append(last[:0], model...)
					checkImage(t, fs, "arena", model, "after Sync")
					synced++
				case fs.Injector().Wedged():
					if !errors.Is(err, faultfs.ErrInjectedCrash) {
						t.Fatalf("seed %d op %d: Sync on a wedged fs: %v", seed, op, err)
					}
					fs.Crash()
					checkImage(t, fs, "arena", last, "after a crash")
					model = append(model[:0], last...)
					open()
					crashed++
				default:
					failed++
				}
			}
			if got := b.Bytes(0, int64(len(model))); !bytes.Equal(got, model) {
				t.Fatalf("seed %d op %d: mirror diverged from the model at byte %d", seed, op, firstDiff(got, model))
			}
		}
		b.Close()
	}
	if synced < 100 || failed < 20 || crashed < 5 {
		t.Fatalf("sweep too narrow: %d Syncs, %d failed, %d crashes", synced, failed, crashed)
	}
}
