// Durable mode: the block store over real media. Two files live in the
// store's directory (or faultfs.FS):
//
//   - wal.log — the write-ahead log, a framed mirror of the substrate's
//     event stream (insert/move/delete), payload checksums, and
//     checkpoint markers (see internal/wal);
//   - arena.<gen>.img — the payload arena, synced to media at every
//     checkpoint. The generation counter exists so recovery never
//     writes the image a durable checkpoint still references: each
//     recovery rebuilds into arena.<gen+1>.img, and only after the new
//     image and the WAL checkpoint record naming it are durable is the
//     old generation removed. A crash at ANY point of recovery
//     therefore replays the old WAL against the old, untouched image.
//
// Checkpoint protocol (snapshot in btl.go): arena sync, then checkpoint
// record, then WAL group-fsync. Replay order is event order because the
// WAL hook logs the trace events themselves.
package btl

import (
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"sort"
	"time"

	"realloc/internal/addrspace"
	"realloc/internal/arena"
	"realloc/internal/wal"
)

// Media file names. The arena name carries the generation.
const walFileName = "wal.log"

func arenaFileName(gen uint64) string { return fmt.Sprintf("arena.%d.img", gen) }

// Open recovers a durable store from the media in cfg.Dir (or cfg.FS):
// the WAL is replayed to the last durable checkpoint, every surviving
// block's bytes are verified against the arena image, and the blocks
// are reloaded into a fresh reallocator. Opening a directory that never
// held a store yields an empty store.
func Open(cfg Config) (*Store, RecoveryReport, error) {
	if cfg.Dir == "" && cfg.FS == nil {
		return nil, RecoveryReport{}, errors.New("btl: Open needs Dir or FS")
	}
	s, err := newShell(cfg)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	s.crashed = true // recoverFromMedia is the shared recovery path
	rep, err := s.recoverFromMedia()
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// newArenaBackend creates an empty payload arena for the current
// generation: the file arena over the store's FS, which is faultfs.OS
// for a real directory, so production and the crash harness run the
// same backend.
func (s *Store) newArenaBackend() (arena.Backend, error) {
	f, err := s.fs.OpenFile(arenaFileName(s.gen))
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	return arena.FromFile(f)
}

// freshMedia truncates any existing store state and opens generation-1
// media: an empty WAL and an empty arena.
func (s *Store) freshMedia() (arena.Backend, error) {
	walF, err := s.fs.OpenFile(walFileName)
	if err != nil {
		return nil, err
	}
	if err := walF.Truncate(0); err != nil {
		walF.Close()
		return nil, err
	}
	s.gen = 1
	data, err := s.newArenaBackend()
	if err != nil {
		walF.Close()
		return nil, err
	}
	s.walF = walF
	s.w = s.newWriter(0)
	return data, nil
}

// newWriter builds the WAL writer with the telemetry hook attached.
func (s *Store) newWriter(off int64) *wal.Writer {
	w := wal.NewWriter(s.walF, off)
	if tel := s.tel; tel != nil {
		w.OnFsync = func(nanos int64) { tel.WALFsync.Record(nanos) }
	}
	return w
}

// recoverFromMedia is the durable recovery path, crash-safe at every
// step:
//
//  1. Replay the WAL (truncating any torn/corrupt tail) to the last
//     durable checkpoint: block table, sequence number, and the arena
//     generation that checkpoint's extents refer to.
//  2. Verify: every replayed block with a checksum must hash to it at
//     its extent of that arena image. Any mismatch aborts recovery —
//     while the checkpoint rule holds, there are none.
//  3. Cut the WAL back to the checkpoint marker (the tail records
//     describe volatile work the re-log below must not collide with).
//  4. Rebuild into the NEXT arena generation: fresh core, blocks
//     re-inserted in id order, payloads rewritten, every placement
//     re-logged through the normal WAL hook.
//  5. Checkpoint: the new arena image is synced, then a checkpoint
//     record naming the new generation is appended and fsynced. Only
//     now does the durable state reference the new image.
//  6. Old arena generations are removed.
//
// A crash before 5 completes leaves the old WAL prefix + old arena
// image fully intact, so the next recovery replays the same state.
func (s *Store) recoverFromMedia() (RecoveryReport, error) {
	t0 := time.Now()
	var rep RecoveryReport

	// Any handles from before the crash are stale; drop them.
	if s.data != nil {
		_ = s.data.Close()
		s.data = nil
	}
	if s.walF != nil {
		_ = s.walF.Close()
		s.walF = nil
		s.w = nil
	}

	walF, err := s.fs.OpenFile(walFileName)
	if err != nil {
		return rep, fmt.Errorf("btl: open wal: %w", err)
	}
	rp, err := wal.Open(walF)
	if err != nil {
		walF.Close()
		return rep, fmt.Errorf("btl: replay wal: %w", err)
	}
	rep.Seq = rp.Seq
	rep.WALTail = rp.Tail
	oldGen := rp.CkptID

	// Verify and load the surviving payloads from the checkpointed
	// arena image.
	type survivor struct {
		id   uint64
		b    wal.Block
		data []byte
	}
	survivors := make([]survivor, 0, len(rp.Blocks))
	if len(rp.Blocks) > 0 {
		arF, err := s.fs.OpenFile(arenaFileName(oldGen))
		if err != nil {
			walF.Close()
			return rep, fmt.Errorf("btl: open arena image: %w", err)
		}
		asz, err := arF.Size()
		if err != nil {
			arF.Close()
			walF.Close()
			return rep, fmt.Errorf("btl: arena image size: %w", err)
		}
		for id, b := range rp.Blocks {
			if b.Start < 0 || b.Size < 0 || b.Start+b.Size > asz {
				rep.Corrupt = append(rep.Corrupt, b.Name)
				continue
			}
			buf := make([]byte, b.Size)
			if b.Size > 0 {
				if n, err := arF.ReadAt(buf, b.Start); err != nil && !(errors.Is(err, io.EOF) && int64(n) == b.Size) {
					rep.Corrupt = append(rep.Corrupt, b.Name)
					continue
				}
			}
			if b.HasSum && crc64.Checksum(buf, crcTable) != b.Sum {
				rep.Corrupt = append(rep.Corrupt, b.Name)
				continue
			}
			survivors = append(survivors, survivor{id: id, b: b, data: buf})
		}
		arF.Close()
		if len(rep.Corrupt) > 0 {
			walF.Close()
			sort.Strings(rep.Corrupt)
			return rep, fmt.Errorf("btl: %d blocks corrupted after crash", len(rep.Corrupt))
		}
	}

	// Cut the WAL back to the last durable checkpoint and resume
	// appending there. (Still crash-safe: the records being discarded
	// are exactly the ones replay already ignores.)
	if err := walF.Truncate(rp.CkptEnd); err != nil {
		walF.Close()
		return rep, fmt.Errorf("btl: truncate wal tail: %w", err)
	}
	s.walF = walF
	s.w = s.newWriter(rp.CkptEnd)
	s.seq = rp.Seq
	s.gen = oldGen + 1
	s.ioErr = nil

	// Rebuild into the next generation; the old image stays untouched
	// until the checkpoint below makes the new one authoritative.
	data, err := s.newArenaBackend()
	if err != nil {
		return rep, fmt.Errorf("btl: create arena generation %d: %w", s.gen, err)
	}
	if err := s.attachCore(data); err != nil {
		return rep, err
	}
	s.byName = make(map[string]addrspace.ID, len(survivors))
	s.names = make(map[addrspace.ID]string, len(survivors))
	s.sums = make(map[addrspace.ID]uint64, len(survivors))
	s.nextID = 1
	s.crashed = false

	// Re-insert with the durable checkpoint protocol suppressed: forced
	// core checkpoints during the rebuild must not log a checkpoint
	// record, because it would stamp the new generation while survivors
	// not yet re-inserted still replay to old-generation extents. The
	// old image and WAL prefix stay authoritative until the single
	// recovery checkpoint below.
	s.rebuilding = true
	defer func() { s.rebuilding = false }()
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].id < survivors[j].id })

	// A checkpoint forced mid-update snapshots both copies of a block —
	// the old id (delete not yet logged) and the new one. The newest id
	// per name wins; stale duplicates are re-logged as deletes, because
	// the WAL prefix still maps them to old-generation extents and a
	// silently skipped id would replay with a stale placement.
	winner := make(map[string]uint64, len(survivors))
	for _, sv := range survivors {
		if sv.id > winner[sv.b.Name] {
			winner[sv.b.Name] = sv.id
		}
	}
	for _, sv := range survivors {
		if winner[sv.b.Name] != sv.id {
			s.logWAL(wal.Record{Kind: wal.KDelete, ID: sv.id})
			continue
		}
		id := addrspace.ID(sv.id)
		s.pendingName = sv.b.Name
		err := s.realloc.Insert(id, sv.b.Size)
		s.pendingName = ""
		if err != nil {
			return rep, fmt.Errorf("btl: reinsert %q: %w", sv.b.Name, err)
		}
		if sv.b.HasSum {
			if err := s.realloc.Write(id, sv.data); err != nil {
				return rep, fmt.Errorf("btl: rewrite %q: %w", sv.b.Name, err)
			}
			s.sums[id] = sv.b.Sum
			s.logWAL(wal.Record{Kind: wal.KSum, ID: sv.id, Sum: sv.b.Sum})
		}
		s.byName[sv.b.Name] = id
		s.names[id] = sv.b.Name
		if id >= s.nextID {
			s.nextID = id + 1
		}
		rep.Recovered++
	}

	// The recovery checkpoint: makes the new generation authoritative.
	s.rebuilding = false
	s.Checkpoint()
	if s.ioErr != nil {
		return rep, fmt.Errorf("btl: recovery checkpoint: %w", s.ioErr)
	}

	// The durable state now references generation s.gen only; reap the
	// predecessors (a bounded sweep — crash-interrupted recoveries can
	// leave more than one behind).
	for g := s.gen; g > 0 && g+8 >= s.gen; g-- {
		if g != s.gen {
			_ = s.fs.Remove(arenaFileName(g))
		}
	}

	s.recoveries++
	if s.tel != nil {
		s.tel.Recovery.Record(time.Since(t0).Nanoseconds())
	}
	return rep, nil
}
