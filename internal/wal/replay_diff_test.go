package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"maps"
	"math/rand/v2"
	"testing"

	"realloc/internal/faultfs"
)

// snapshotFold is the reference replay: it applies records in order and
// copies the whole live table at every checkpoint marker, the
// O(checkpoints × live) fold Open's undo log replaces. It scans an
// in-memory image with the same framing and semantic checks as Open.
func snapshotFold(data []byte) Replay {
	rep := Replay{}
	cur := map[uint64]Block{}
	size := int64(len(data))
	var off int64
scan:
	for off < size {
		rest := data[off:]
		if len(rest) < headerSize {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		if plen == 0 || plen+headerSize > maxFrame || plen+headerSize > int64(len(rest)) {
			break
		}
		payload := rest[headerSize : headerSize+plen]
		if crc64.Checksum(payload, crcTable) != binary.LittleEndian.Uint64(rest[4:]) {
			break
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			break
		}
		switch r.Kind {
		case KInsert:
			cur[r.ID] = Block{Name: r.Name, Start: r.Start, Size: r.Size, Sum: r.Sum, HasSum: r.HasSum}
		case KDelete:
			if _, ok := cur[r.ID]; !ok {
				break scan
			}
			delete(cur, r.ID)
		case KMove:
			b, ok := cur[r.ID]
			if !ok {
				break scan
			}
			b.Start = r.Start
			cur[r.ID] = b
		case KSum:
			b, ok := cur[r.ID]
			if !ok {
				break scan
			}
			b.Sum, b.HasSum = r.Sum, true
			cur[r.ID] = b
		case KCheckpoint:
			rep.Blocks = maps.Clone(cur)
			rep.Seq = r.Seq
			rep.CkptID = r.ID
			rep.CkptEnd = off + headerSize + plen
			rep.Checkpoints++
			rep.Tail = -1
		}
		rep.Frames++
		rep.Tail++
		off += headerSize + plen
	}
	rep.CleanLen = off
	rep.Truncated = size - off
	return rep
}

// randomLog encodes a random record stream over a small id space:
// inserts, moves, sums, deletes and checkpoints, plus (rarely) a
// semantically corrupt record that references an id not in the table.
func randomLog(t *testing.T, rng *rand.Rand, records int) []byte {
	t.Helper()
	w := NewWriter(nil, 0) // frames accumulate in w.buf; nothing is flushed
	live := map[uint64]bool{}
	var ids []uint64
	nextID := uint64(1)
	seq := uint64(0)
	pick := func() (uint64, bool) {
		for len(ids) > 0 {
			j := rng.IntN(len(ids))
			if live[ids[j]] {
				return ids[j], true
			}
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		return 0, false
	}
	for n := 0; n < records; n++ {
		var r Record
		id, ok := pick()
		switch k := rng.IntN(200); {
		case k == 0:
			// Semantic corruption: an id the table never held.
			r = Record{Kind: []Kind{KDelete, KMove, KSum}[rng.IntN(3)], ID: 1 << 40, Start: 8, Sum: 1}
		case k < 30:
			seq++
			r = Record{Kind: KCheckpoint, Seq: seq, ID: rng.Uint64N(4)}
		case k < 80 || !ok:
			// Re-inserting a live id overwrites its entry, as replay allows.
			if ok && rng.IntN(8) == 0 {
				r.ID = id
			} else {
				r.ID = nextID
				nextID++
			}
			r.Kind, r.Start, r.Size, r.Name = KInsert, rng.Int64N(1<<20), 1+rng.Int64N(4096), fmt.Sprintf("b%d", r.ID)
			if rng.IntN(2) == 0 {
				r.Sum, r.HasSum = rng.Uint64(), true
			}
			live[r.ID] = true
			ids = append(ids, r.ID)
		case k < 120:
			r = Record{Kind: KMove, ID: id, Start: rng.Int64N(1 << 20)}
		case k < 150:
			r = Record{Kind: KSum, ID: id, Sum: rng.Uint64()}
		default:
			r = Record{Kind: KDelete, ID: id}
			live[id] = false
		}
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return w.buf
}

// TestReplayMatchesSnapshotFold: Open's undo-log replay lands on exactly
// the state the snapshot-copy fold does, on random logs with clean,
// torn and bit-flipped tails and semantic-corruption cut points.
func TestReplayMatchesSnapshotFold(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 0x0dd))
	var cut, rolledBack int
	for iter := 0; iter < 400; iter++ {
		image := randomLog(t, rng, 1+rng.IntN(300))
		switch rng.IntN(3) {
		case 1: // torn tail
			image = image[:rng.IntN(len(image)+1)]
		case 2: // corrupt byte
			image[rng.IntN(len(image))] ^= byte(1 + rng.IntN(255))
		}
		want := snapshotFold(image)
		if want.Truncated > 0 {
			cut++
		}
		if want.Checkpoints > 0 && want.Tail > 0 {
			rolledBack++
		}

		f, err := faultfs.NewMemFS(nil).OpenFile("wal.log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(image, 0); err != nil {
			t.Fatal(err)
		}
		got, err := Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got.Blocks, want.Blocks) || (got.Blocks == nil) != (want.Blocks == nil) {
			t.Fatalf("iter %d: Blocks differ: got %d entries, want %d", iter, len(got.Blocks), len(want.Blocks))
		}
		type scan struct {
			Seq, CkptID                  uint64
			CkptEnd, Truncated, CleanLen int64
			Checkpoints, Frames, Tail    int
		}
		g := scan{got.Seq, got.CkptID, got.CkptEnd, got.Truncated, got.CleanLen, got.Checkpoints, got.Frames, got.Tail}
		w := scan{want.Seq, want.CkptID, want.CkptEnd, want.Truncated, want.CleanLen, want.Checkpoints, want.Frames, want.Tail}
		if g != w {
			t.Fatalf("iter %d: replay %+v, snapshot fold %+v", iter, g, w)
		}
	}
	if cut < 100 || rolledBack < 100 {
		t.Fatalf("sweep too narrow: %d cut logs, %d with a tail to roll back", cut, rolledBack)
	}
}
