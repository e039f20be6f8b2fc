package realloc_test

// Durability benchmarks: what the WAL + file-backed arena cost over the
// in-memory heap backend for identical churn, and how fast WAL replay
// rebuilds a checkpointed block table. cmd/benchgate's -durable lane
// gates both and writes BENCH_ci_durable.json.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"realloc"
	"realloc/internal/faultfs"
	"realloc/internal/wal"
)

// benchBlockChurn drives steady-state block churn — Drop+Put pairs with
// a periodic explicit checkpoint — against a block store. The durable
// lane pays a WAL append per placement and an arena sync + group-fsync
// per checkpoint; the heap lane pays only the memmoves. Checkpoints per
// op (forced plus explicit) are reported as ckpt/op: the paper's
// expensive event. Both lanes replay the same stream, so their ckpt/op
// differ only by where each lane's b.N cuts it.
func benchBlockChurn(b *testing.B, s *realloc.BlockStore) {
	const live = 256
	const ckptEvery = 128
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	rng := rand.New(rand.NewPCG(7, 0xd07ab))
	names := make([]string, 0, live)
	next := 0
	put := func() error {
		name := fmt.Sprintf("blk%08d", next)
		next++
		if err := s.Put(name, payload[:32+rng.IntN(96)]); err != nil {
			return err
		}
		names = append(names, name)
		return nil
	}
	for len(names) < live {
		if err := put(); err != nil {
			b.Fatal(err)
		}
	}
	s.Checkpoint()
	if err := s.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	ckpt0 := s.Checkpoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.IntN(len(names))
		if err := s.Drop(names[j]); err != nil {
			b.Fatal(err)
		}
		names[j] = names[len(names)-1]
		names = names[:len(names)-1]
		if err := put(); err != nil {
			b.Fatal(err)
		}
		if i%ckptEvery == ckptEvery-1 {
			s.Checkpoint()
			if err := s.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(s.Checkpoints()-ckpt0)/float64(b.N), "ckpt/op")
}

// BenchmarkDurableChurn prices durability: identical block churn on the
// in-memory heap arena (lane "heap") and in durable mode (lane "wal" —
// WAL appends per placement, file-backed arena synced plus WAL
// group-fsync per checkpoint). cmd/benchgate's -durable lane compares
// the pair and fails CI when the durable path's per-op cost drifts
// beyond its bound.
func BenchmarkDurableChurn(b *testing.B) {
	b.Run("heap", func(b *testing.B) {
		s, err := realloc.NewBlockStore(realloc.BlockStoreBackend(realloc.HeapArena))
		if err != nil {
			b.Fatal(err)
		}
		benchBlockChurn(b, s)
	})
	b.Run("wal", func(b *testing.B) {
		s, err := realloc.NewBlockStore(realloc.BlockStoreDir(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		benchBlockChurn(b, s)
	})
}

// BenchmarkWALReplay measures cold-start recovery speed: one op is one
// full wal.Open replay of a log holding `ops` records (inserts, moves,
// checksums, and a checkpoint every 100 records). The log image is
// staged outside the timer; each iteration replays a fresh copy.
func BenchmarkWALReplay(b *testing.B) {
	for _, ops := range []int{100_000} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			image := buildWALImage(b, ops)
			b.SetBytes(int64(len(image)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := faultfs.NewMemFS(nil)
				f, err := fs.OpenFile("wal.log")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(image, 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := wal.Open(f)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Frames != ops {
					b.Fatalf("replayed %d of %d frames", rep.Frames, ops)
				}
			}
		})
	}
}

// buildWALImage stages a clean ops-record log: 1000 live blocks churned
// by move/delete/insert records with a checkpoint every 100.
func buildWALImage(b *testing.B, ops int) []byte {
	b.Helper()
	fs := faultfs.NewMemFS(nil)
	f, err := fs.OpenFile("stage")
	if err != nil {
		b.Fatal(err)
	}
	w := wal.NewWriter(f, 0)
	rng := rand.New(rand.NewPCG(11, 0x5eed))
	const liveTarget = 1000
	var live []uint64
	nextID := uint64(1)
	seq := uint64(0)
	for n := 0; n < ops; n++ {
		var rec wal.Record
		switch {
		case n%100 == 99:
			seq++
			rec = wal.Record{Kind: wal.KCheckpoint, Seq: seq, ID: 1}
		case len(live) < liveTarget || rng.IntN(10) == 0:
			rec = wal.Record{Kind: wal.KInsert, ID: nextID,
				Start: int64(nextID) * 128, Size: 64 + int64(rng.IntN(64)),
				Name: fmt.Sprintf("blk%08d", nextID)}
			live = append(live, nextID)
			nextID++
		case rng.IntN(5) == 0:
			j := rng.IntN(len(live))
			rec = wal.Record{Kind: wal.KDelete, ID: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			rec = wal.Record{Kind: wal.KMove, ID: live[rng.IntN(len(live))],
				Start: rng.Int64N(1 << 30)}
		}
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		b.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		b.Fatal(err)
	}
	image := make([]byte, sz)
	if _, err := f.ReadAt(image, 0); err != nil {
		b.Fatal(err)
	}
	return image
}
