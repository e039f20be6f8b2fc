package arena

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"syscall"
	"time"

	"realloc/internal/faultfs"
)

// fileArena is the file backend on every platform: a heap mirror of the
// address space plus a backing file. Copy and Write mark the 4 KiB
// pages they change in a bitmap; Sync extends the file to the mirror's
// length, writes back each maximal run of changed pages with pwrite,
// and fsyncs once. A checkpoint therefore costs the pages it changed,
// not the arena's size.
//
// Every file goes through faultfs.File: Create and Open use faultfs.OS,
// and FromFile accepts any handle, including MemFS handles whose writes
// and syncs an Injector can crash, tear, drop, or fail — so the crash
// harness exercises exactly the code durable stores run.
//
// Between Syncs the file lags the mirror arbitrarily, which is exactly
// the durability contract the checkpoint protocol assumes: only bytes
// covered by a completed Sync are promised to survive.
type fileArena struct {
	f   faultfs.File
	mem []byte
	// dirty holds one bit per page of mem: set when the page changed
	// since the last successful Sync.
	dirty []uint64
	// fileLen is the file's length as far as Sync has extended it.
	fileLen int64
	timing  bool
	closed  bool
	c       Counters
	// retries/retryDelay govern the transient-EIO retry loop on the
	// Sync write-back, mirroring the WAL writer's policy.
	retries    int
	retryDelay time.Duration
}

// pageShift is log2 of the write-back granularity.
const pageShift = 12

// bitmapWords is the number of dirty-bitmap words covering n bytes.
func bitmapWords(n int64) int {
	return int((n + (64 << pageShift) - 1) >> (pageShift + 6))
}

// Create builds a fresh file-backed arena at path, truncating any
// existing file.
func Create(path string) (Backend, error) {
	f, err := faultfs.OS{Dir: filepath.Dir(path)}.OpenFile(filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("arena: create %s: %w", path, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("arena: create %s: %w", path, err)
	}
	return FromFile(f)
}

// Open reopens a file-backed arena, exposing the file's current bytes
// as the address-space image (creating an empty arena if the file does
// not exist). This is the recovery path: the image is whatever the
// last completed Sync made durable, plus any later writes the crash
// happened to leave behind.
func Open(path string) (Backend, error) {
	f, err := faultfs.OS{Dir: filepath.Dir(path)}.OpenFile(filepath.Base(path))
	if err != nil {
		return nil, fmt.Errorf("arena: open %s: %w", path, err)
	}
	return FromFile(f)
}

// FromFile builds a file backend over an already-open file, loading
// any existing content as the initial address-space image. The arena
// takes ownership of the handle: Close closes it.
func FromFile(f faultfs.File) (Backend, error) {
	sz, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("arena: file size: %w", err)
	}
	mem := make([]byte, sz)
	if sz > 0 {
		if n, err := f.ReadAt(mem, 0); err != nil && !(errors.Is(err, io.EOF) && int64(n) == sz) {
			return nil, fmt.Errorf("arena: load file image: %w", err)
		}
	}
	return &fileArena{f: f, mem: mem, dirty: make([]uint64, bitmapWords(sz)), fileLen: sz,
		retries: 5, retryDelay: time.Millisecond}, nil
}

func (a *fileArena) Kind() Kind { return File }
func (a *fileArena) Real() bool { return true }

func (a *fileArena) Ensure(n int64) {
	if a.closed {
		panic(ErrClosed)
	}
	if n <= int64(len(a.mem)) {
		return
	}
	newLen := int64(len(a.mem)) * 2
	if newLen < n {
		newLen = n
	}
	grown := make([]byte, newLen)
	copy(grown, a.mem)
	a.mem = grown
	// The grown tail is zeros in the mirror and, once Sync extends the
	// file, zeros there too: it starts clean.
	if w := bitmapWords(newLen); w > len(a.dirty) {
		a.dirty = append(a.dirty, make([]uint64, w-len(a.dirty))...)
	}
}

// mark records the bytes [start, end) as changed since the last Sync.
func (a *fileArena) mark(start, end int64) {
	for p := start >> pageShift; p <= (end-1)>>pageShift; p++ {
		a.dirty[p>>6] |= 1 << (p & 63)
	}
}

func (a *fileArena) Copy(dst, src, size int64) {
	end := dst + size
	if se := src + size; se > end {
		end = se
	}
	a.Ensure(end)
	if a.timing {
		t0 := time.Now()
		copy(a.mem[dst:dst+size], a.mem[src:src+size])
		a.c.CopyNanos += int64(time.Since(t0))
	} else {
		copy(a.mem[dst:dst+size], a.mem[src:src+size])
	}
	if size > 0 {
		a.mark(dst, dst+size)
	}
	a.c.BytesMoved += size
	a.c.Copies++
}

func (a *fileArena) Write(start int64, p []byte) {
	copy(a.Bytes(start, int64(len(p))), p)
	if len(p) > 0 {
		a.mark(start, start+int64(len(p)))
	}
}

// Bytes is a read view of the mirror (see Backend.Bytes): stores
// through it are not marked and so are not written back.
func (a *fileArena) Bytes(start, size int64) []byte {
	a.Ensure(start + size)
	return a.mem[start : start+size : start+size]
}

func (a *fileArena) Counters() Counters { return a.c }
func (a *fileArena) SetTiming(on bool)  { a.timing = on }

// dirtyRun returns the first maximal run [lo, hi) of changed pages at
// or after page from; lo is -1 when no page is left.
func (a *fileArena) dirtyRun(from int64) (lo, hi int64) {
	n := int64(len(a.dirty)) * 64
	for lo = from; lo < n; lo = (lo | 63) + 1 {
		if w := a.dirty[lo>>6] >> (lo & 63); w != 0 {
			lo += int64(bits.TrailingZeros64(w))
			break
		}
	}
	if lo >= n {
		return -1, -1
	}
	for hi = lo; hi < n; hi = (hi | 63) + 1 {
		if w := ^a.dirty[hi>>6] >> (hi & 63); w != 0 {
			hi += int64(bits.TrailingZeros64(w))
			break
		}
	}
	return lo, hi
}

// Sync makes the mirror durable: it extends the file if the mirror
// grew, writes back each maximal run of changed pages, and fsyncs once.
// A transient EIO on a write is retried with doubling backoff; the
// injected crash sentinel and any other error (ENOSPC among them) are
// final, and the caller treats the checkpoint as failed. The changed
// pages stay marked until the fsync succeeds, so a retried Sync
// rewrites every page a failed one may not have made durable.
func (a *fileArena) Sync() error {
	if a.closed {
		return ErrClosed
	}
	size := int64(len(a.mem))
	if size > a.fileLen {
		if err := a.f.Truncate(size); err != nil {
			return fmt.Errorf("arena: extend file to %d bytes: %w", size, err)
		}
		a.fileLen = size
	}
	for lo, hi := a.dirtyRun(0); lo >= 0; lo, hi = a.dirtyRun(hi) {
		start, end := lo<<pageShift, min(hi<<pageShift, size)
		if err := a.writeBack(a.mem[start:end], start); err != nil {
			return fmt.Errorf("arena: sync write-back: %w", err)
		}
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("arena: fsync: %w", err)
	}
	clear(a.dirty)
	return nil
}

// writeBack writes p at off, retrying a transient EIO.
func (a *fileArena) writeBack(p []byte, off int64) error {
	delay := a.retryDelay
	for attempt := 0; ; attempt++ {
		_, err := a.f.WriteAt(p, off)
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.EIO) || errors.Is(err, faultfs.ErrInjectedCrash) || attempt >= a.retries {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		delay *= 2
	}
}

func (a *fileArena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.mem, a.dirty = nil, nil
	return a.f.Close()
}
