// Package wal is the block store's write-ahead event log: the durable
// record of every placement decision, from which a crashed store
// rebuilds its address space.
//
// The log is a sequence of self-validating frames. Each frame is
// length-prefixed and carries a crc64 of its payload, so replay can
// walk the file front to back and stop — and truncate — at the first
// frame that is torn (a crash mid-write left a prefix) or corrupt (a
// bit flipped under it). Everything before that point is trusted;
// everything after is discarded. Four record kinds mirror the
// substrate's event stream: insert (an object's first placement, with
// its logical name and optional payload checksum), move (a flush
// relocated it), delete, and checkpoint (the durability barrier of the
// paper's model — the instant the translation map is durable).
//
// Replay rebuilds the translation table by applying records in order,
// keeping an undo log of the entries changed since the last checkpoint
// marker; rolling that log back at the end yields the table at the LAST
// durable checkpoint, in time linear in the records scanned. Records
// after that marker are the tail: work the store did but never made
// durable, reported for observability and otherwise ignored — exactly
// the blocks the paper says a crash loses.
//
// The Writer buffers appends and group-fsyncs: WriteAt batches land in
// the OS (or the fault model's volatile image) per Flush, and Sync is
// the only durability barrier. Transient write errors (syscall.EIO)
// are retried with a capped backoff, because a single spurious EIO
// from a loaded disk must not wedge the store; injected hard faults
// (faultfs.ErrInjectedCrash) are never retried.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"syscall"
	"time"

	"realloc/internal/faultfs"
)

// crcTable is the frame checksum polynomial — the same ECMA polynomial
// the block layer uses for payload checksums.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Kind names a record type.
type Kind uint8

const (
	// KInsert is an object's first placement.
	KInsert Kind = 1
	// KDelete removes an object.
	KDelete Kind = 2
	// KMove relocates an object to a new start address.
	KMove Kind = 3
	// KCheckpoint marks a durability barrier; Seq numbers them.
	KCheckpoint Kind = 4
	// KSum attaches a payload checksum to a live object. It is a
	// separate record from KInsert because the payload is written after
	// the placement: a checkpoint forced mid-insert must snapshot the
	// block as placed-but-unverified, not claim a checksum the arena
	// bytes cannot satisfy yet.
	KSum Kind = 5
)

func (k Kind) String() string {
	switch k {
	case KInsert:
		return "insert"
	case KDelete:
		return "delete"
	case KMove:
		return "move"
	case KCheckpoint:
		return "checkpoint"
	case KSum:
		return "sum"
	default:
		return "unknown"
	}
}

// Record is one logged event. Field use by kind:
//
//	KInsert:     ID, Start, Size, Name, Sum/HasSum
//	KDelete:     ID
//	KMove:       ID, Start (the new address)
//	KCheckpoint: Seq, ID (opaque caller metadata — the block layer
//	             stores the arena-file generation here, so replay knows
//	             which arena image the checkpointed extents refer to)
//	KSum:        ID, Sum
type Record struct {
	Kind   Kind
	ID     uint64
	Start  int64
	Size   int64
	Seq    uint64
	Sum    uint64
	HasSum bool
	Name   string
}

// Frame layout: u32 payload length | u64 crc64(payload) | payload.
const (
	headerSize = 4 + 8
	// maxFrame bounds a frame so a corrupt length prefix cannot make
	// replay allocate gigabytes: the largest legal payload is an insert
	// record with a maxName-byte name.
	maxFrame = 1 << 16
	// maxName bounds an insert record's name.
	maxName = 1 << 12
)

// Errors reported by the package.
var (
	// ErrFrameTooBig is returned by Append for a record that cannot be
	// framed (name too long).
	ErrFrameTooBig = errors.New("wal: record exceeds frame limit")
)

// appendRecord encodes r into buf (a frame payload, no header).
func appendRecord(buf []byte, r Record) ([]byte, error) {
	buf = append(buf, byte(r.Kind))
	switch r.Kind {
	case KInsert:
		if len(r.Name) > maxName {
			return nil, fmt.Errorf("%w: name of %d bytes", ErrFrameTooBig, len(r.Name))
		}
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Size))
		buf = binary.LittleEndian.AppendUint64(buf, r.Sum)
		if r.HasSum {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Name)))
		buf = append(buf, r.Name...)
	case KDelete:
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	case KMove:
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Start))
	case KCheckpoint:
		buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
	case KSum:
		buf = binary.LittleEndian.AppendUint64(buf, r.ID)
		buf = binary.LittleEndian.AppendUint64(buf, r.Sum)
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return buf, nil
}

// DecodeRecord decodes one frame payload. It never panics: any
// malformed payload returns an error (the fuzz target pins this).
func DecodeRecord(p []byte) (Record, error) {
	var r Record
	if len(p) < 1 {
		return r, errors.New("wal: empty payload")
	}
	r.Kind = Kind(p[0])
	p = p[1:]
	need := func(n int) bool { return len(p) >= n }
	switch r.Kind {
	case KInsert:
		if !need(8*4 + 1 + 2) {
			return r, errors.New("wal: short insert record")
		}
		r.ID = binary.LittleEndian.Uint64(p)
		r.Start = int64(binary.LittleEndian.Uint64(p[8:]))
		r.Size = int64(binary.LittleEndian.Uint64(p[16:]))
		r.Sum = binary.LittleEndian.Uint64(p[24:])
		r.HasSum = p[32] != 0
		nameLen := int(binary.LittleEndian.Uint16(p[33:]))
		p = p[35:]
		if nameLen > maxName || len(p) != nameLen {
			return r, fmt.Errorf("wal: insert name length %d does not match payload (%d left)", nameLen, len(p))
		}
		r.Name = string(p)
		if r.Size < 0 || r.Start < 0 {
			return r, fmt.Errorf("wal: negative extent %d+%d", r.Start, r.Size)
		}
	case KDelete:
		if len(p) != 8 {
			return r, errors.New("wal: bad delete record")
		}
		r.ID = binary.LittleEndian.Uint64(p)
	case KMove:
		if len(p) != 16 {
			return r, errors.New("wal: bad move record")
		}
		r.ID = binary.LittleEndian.Uint64(p)
		r.Start = int64(binary.LittleEndian.Uint64(p[8:]))
		if r.Start < 0 {
			return r, fmt.Errorf("wal: negative move target %d", r.Start)
		}
	case KCheckpoint:
		if len(p) != 16 {
			return r, errors.New("wal: bad checkpoint record")
		}
		r.Seq = binary.LittleEndian.Uint64(p)
		r.ID = binary.LittleEndian.Uint64(p[8:])
	case KSum:
		if len(p) != 16 {
			return r, errors.New("wal: bad sum record")
		}
		r.ID = binary.LittleEndian.Uint64(p)
		r.Sum = binary.LittleEndian.Uint64(p[8:])
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", byte(r.Kind))
	}
	return r, nil
}

// ---------------------------------------------------------------------
// Writer.

// Writer appends frames to a log file with group-fsync semantics:
// Append buffers, Flush writes the buffered frames in one WriteAt, and
// Sync is Flush plus the durability barrier. A Writer is not safe for
// concurrent use (the block layer serializes all access).
type Writer struct {
	f   faultfs.File
	off int64 // next write offset
	buf []byte
	// Retries and RetryDelay govern the transient-EIO retry loop:
	// attempts beyond the first, and the base backoff (doubled per
	// attempt). Tests shrink the delay to keep fault sweeps fast.
	Retries    int
	RetryDelay time.Duration
	// OnFsync, when set, observes each successful Sync's wall-clock
	// nanoseconds (the telemetry hook).
	OnFsync func(nanos int64)
}

// NewWriter appends at offset off (the clean length Open reports, or 0
// for a fresh log).
func NewWriter(f faultfs.File, off int64) *Writer {
	return &Writer{f: f, off: off, Retries: 5, RetryDelay: time.Millisecond}
}

// Offset returns where the next frame will land.
func (w *Writer) Offset() int64 { return w.off + int64(len(w.buf)) }

// Append frames one record into the group buffer.
func (w *Writer) Append(r Record) error {
	payload, err := appendRecord(nil, r)
	if err != nil {
		return err
	}
	if len(payload)+headerSize > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(payload))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], crc64.Checksum(payload, crcTable))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	return nil
}

// retryWrite performs one WriteAt with the transient-EIO retry loop: a
// syscall.EIO is retried with doubling backoff, any other error is
// final. The injected-crash sentinel is explicitly never retried — a
// wedged file stays wedged.
func (w *Writer) retryWrite(p []byte, off int64) error {
	delay := w.RetryDelay
	for attempt := 0; ; attempt++ {
		_, err := w.f.WriteAt(p, off)
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.EIO) || errors.Is(err, faultfs.ErrInjectedCrash) || attempt >= w.Retries {
			return err
		}
		if delay > 0 {
			time.Sleep(delay)
			delay *= 2
		}
	}
}

// Flush writes the buffered frames at the current offset. The bytes
// land in the OS, not on the platter — Sync is the barrier.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.retryWrite(w.buf, w.off); err != nil {
		return err
	}
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// Sync flushes buffered frames and issues the durability barrier,
// reporting the barrier's latency to OnFsync.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.OnFsync != nil {
		w.OnFsync(int64(time.Since(t0)))
	}
	return nil
}

// ---------------------------------------------------------------------
// Replay.

// Block is one entry of the replayed translation table.
type Block struct {
	Name   string
	Start  int64
	Size   int64
	Sum    uint64
	HasSum bool
}

// Replay is the outcome of Open: the durable translation table plus
// the scan's forensics.
type Replay struct {
	// Blocks is the table at the last durable checkpoint (nil map when
	// the log holds no checkpoint).
	Blocks map[uint64]Block
	// Seq is the last durable checkpoint's sequence number (0 when no
	// checkpoint was found).
	Seq uint64
	// CkptID is the last durable checkpoint record's ID field — opaque
	// caller metadata (the block layer's arena-file generation).
	CkptID uint64
	// CkptEnd is the offset just past the last durable checkpoint frame
	// (0 when no checkpoint was found). Log compaction truncates here
	// before re-logging: the tail records beyond it describe state the
	// compacted log must not replay twice.
	CkptEnd int64
	// Checkpoints counts the markers replayed.
	Checkpoints int
	// Frames counts valid frames scanned (including the tail).
	Frames int
	// Tail counts valid records after the last checkpoint marker —
	// work the store did but never made durable.
	Tail int
	// Truncated is how many bytes were cut from the log's end because
	// the first invalid frame started there (0 for a clean log).
	Truncated int64
	// CleanLen is the log length after truncation: where a Writer
	// should resume appending.
	CleanLen int64
}

// Open scans the log front to back, validates every frame, truncates
// the file at the first torn or corrupt frame, and returns the
// translation table as of the last durable checkpoint.
func Open(f faultfs.File) (*Replay, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if size > 0 {
		if n, err := f.ReadAt(data, 0); int64(n) != size {
			return nil, fmt.Errorf("wal: short read %d of %d: %v", n, size, err)
		}
	}

	rep := &Replay{}
	cur := map[uint64]Block{}
	// undo holds, per record applied since the last checkpoint marker,
	// the entry it replaced; rolling it back in reverse order restores
	// the table as of that marker.
	type undoEntry struct {
		id  uint64
		old Block
		had bool
	}
	var undo []undoEntry
	var off int64
scan:
	for off < size {
		rest := data[off:]
		if len(rest) < headerSize {
			break // torn header
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		if plen == 0 || plen+headerSize > maxFrame || plen+headerSize > int64(len(rest)) {
			break // corrupt length or torn payload
		}
		payload := rest[headerSize : headerSize+plen]
		if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(rest[4:]) {
			break // corrupt payload
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			break // structurally invalid — treat as corruption, not fatal
		}
		switch r.Kind {
		case KInsert:
			old, had := cur[r.ID]
			undo = append(undo, undoEntry{r.ID, old, had})
			cur[r.ID] = Block{Name: r.Name, Start: r.Start, Size: r.Size, Sum: r.Sum, HasSum: r.HasSum}
		case KDelete:
			b, ok := cur[r.ID]
			if !ok {
				break scan // semantic corruption: delete of an unknown id
			}
			undo = append(undo, undoEntry{r.ID, b, true})
			delete(cur, r.ID)
		case KMove:
			b, ok := cur[r.ID]
			if !ok {
				break scan // semantic corruption: move of an unknown id
			}
			undo = append(undo, undoEntry{r.ID, b, true})
			b.Start = r.Start
			cur[r.ID] = b
		case KSum:
			b, ok := cur[r.ID]
			if !ok {
				break scan // semantic corruption: sum for an unknown id
			}
			undo = append(undo, undoEntry{r.ID, b, true})
			b.Sum, b.HasSum = r.Sum, true
			cur[r.ID] = b
		case KCheckpoint:
			undo = undo[:0]
			rep.Seq = r.Seq
			rep.CkptID = r.ID
			rep.CkptEnd = off + headerSize + plen
			rep.Checkpoints++
			rep.Tail = -1 // reset below the per-frame increment
		}
		rep.Frames++
		rep.Tail++
		off += headerSize + plen
	}
	if rep.Checkpoints > 0 {
		for i := len(undo) - 1; i >= 0; i-- {
			if u := undo[i]; u.had {
				cur[u.id] = u.old
			} else {
				delete(cur, u.id)
			}
		}
		rep.Blocks = cur
	}
	rep.CleanLen = off
	rep.Truncated = size - off
	if rep.Truncated > 0 {
		if err := f.Truncate(off); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return rep, nil
}
