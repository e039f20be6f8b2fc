package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"realloc"
	"realloc/internal/btl"
	"realloc/internal/faultfs"
	"realloc/internal/telemetry"
	"realloc/internal/wal"
)

// blocks-heap and blocks-durable: a BlockStore holding 4096 live blocks
// of 64–4096 B. Each step is Drop + Put + 4 verified Gets, with an
// explicit Checkpoint every 128 steps; the durable workload runs the
// same stream through BlockStoreDir.
const (
	blockLive      = 4096
	blockMin       = 64
	blockMax       = 4096
	blockGets      = 4
	blockCkptEvery = 128
	blockWarm      = 1024
	blockHeapRate  = 2_800
	blockDiskRate  = 1_500
	// recoveries is how many copies of the final media are opened; the
	// median is recover_ms.
	recoveries = 3
)

type block struct {
	key, size int64
	name      string
}

type blockGen struct {
	rng  *rand.Rand
	next int64
	live []block
}

func (g *blockGen) newBlock() block {
	b := block{key: g.next, size: blockMin + g.rng.Int64N(blockMax-blockMin+1), name: "blk-" + strconv.FormatInt(g.next, 10)}
	g.next++
	g.live = append(g.live, b)
	return b
}

func (g *blockGen) victim() block { return takeRandom(g.rng, &g.live) }

type blockLoop struct {
	gen      *blockGen
	s        *realloc.BlockStore
	res      *result
	buf      []byte
	got      [blockGets][]byte
	which    [blockGets]block
	ph       phase
	steps    int64
	writes   samples
	reads    samples
	ckpts    samples
	readAcc  time.Duration
	readN    int
	inserted int64
	ampSum   float64
	ampN     int64
}

func newBlockLoop(cfg config, s *realloc.BlockStore, res *result) *blockLoop {
	return &blockLoop{gen: &blockGen{rng: cfg.rng(3), next: 1}, s: s, res: res, buf: make([]byte, blockMax)}
}

func (d *blockLoop) put(b block) {
	p := d.buf[:b.size]
	payload(p, uint64(b.key))
	t0 := time.Now()
	err := d.s.Put(b.name, p)
	el := time.Since(t0)
	d.res.check(err, "put")
	d.writes.add(el, 1)
	d.ph.add(el, 1)
	d.inserted += b.size
}

// step is Drop + Put + 4 Gets, plus the periodic explicit Checkpoint.
// Gets are cheap, so their time accumulates across 16 steps into one
// 64-call read sample.
func (d *blockLoop) step() {
	v := d.gen.victim()
	t0 := time.Now()
	err := d.s.Drop(v.name)
	el := time.Since(t0)
	d.res.check(err, "drop")
	d.writes.add(el, 1)
	d.ph.add(el, 1)

	d.put(d.gen.newBlock())

	for i := range d.which {
		d.which[i] = d.gen.live[d.gen.rng.IntN(len(d.gen.live))]
	}
	t0 = time.Now()
	for i, b := range d.which {
		d.got[i], err = d.s.Get(b.name)
		d.res.check(err, "get")
	}
	el = time.Since(t0)
	d.readAcc += el
	d.readN += blockGets
	d.ph.add(el, blockGets)
	if d.readN == group {
		d.reads.add(d.readAcc, group)
		d.readAcc, d.readN = 0, 0
	}
	for i, b := range d.which {
		if int64(len(d.got[i])) != b.size || !verify(d.got[i], uint64(b.key)) {
			d.res.fail("payload mismatch on block %s", b.name)
		}
	}

	d.steps++
	if d.steps%blockCkptEvery == 0 {
		t0 := time.Now()
		d.s.Checkpoint()
		el := time.Since(t0)
		d.ckpts.add(el, 1)
		d.ph.add(el, 1)
		d.res.check(d.s.Err(), "checkpoint")
	}
	d.ampSum += float64(d.s.Footprint()) / float64(d.s.Volume())
	d.ampN++
}

func (d *blockLoop) prefill() {
	for len(d.gen.live) < blockLive {
		d.put(d.gen.newBlock())
	}
	for i := 0; i < blockWarm; i++ {
		d.step()
	}
	d.s.Checkpoint()
}

func (d *blockLoop) measure(steps int64) {
	d.ph, d.steps, d.inserted, d.ampSum, d.ampN = phase{}, 0, 0, 0, 0
	d.readAcc, d.readN = 0, 0
	d.writes, d.reads = newSamples(2*steps), newSamples(steps*blockGets/group)
	d.ckpts = newSamples(steps/blockCkptEvery + 1)
	inRounds(steps, func() int64 { return d.steps }, d.step, &d.ph, &d.writes, &d.reads)
}

// verifyBlocks reads back every live block and runs the store's
// cross-layer invariant check, which re-checksums every payload.
func verifyBlocks(s *realloc.BlockStore, live []block, res *result) {
	if s.Len() != len(live) {
		res.fail("store holds %d blocks, want %d", s.Len(), len(live))
	}
	for _, b := range live {
		p, err := s.Get(b.name)
		if err != nil || int64(len(p)) != b.size || !verify(p, uint64(b.key)) {
			res.fail("read-back of block %s: err=%v", b.name, err)
		}
	}
	res.check(s.CheckInvariants(), "CheckInvariants")
}

// withRecorder taps the store's placement event stream. BlockStore has
// no public move counter, so move_amp needs the tap in every run.
func withRecorder(tr *tracer) realloc.BlockStoreOption {
	return func(c *btl.Config) { c.Recorder = tr }
}

// blockRun is one block-store instance and its taps.
type blockRun struct {
	s   *realloc.BlockStore
	d   *blockLoop
	tr  *tracer
	reg *telemetry.Registry
	dir string
}

func newBlockRun(cfg config, dir string, timing bool) (*blockRun, error) {
	r := &blockRun{tr: &tracer{timing: timing}, reg: telemetry.NewRegistry(), dir: dir}
	opts := []realloc.BlockStoreOption{realloc.BlockStoreEpsilon(0.25), withRecorder(r.tr)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// The WAL fsync histogram is the public count of durability
		// barriers; it costs one histogram record per fsync.
		opts = append(opts, realloc.BlockStoreDir(dir), realloc.BlockStoreTelemetry(r.reg))
	} else {
		opts = append(opts, realloc.BlockStoreBackend(realloc.HeapArena))
	}
	s, err := realloc.NewBlockStore(opts...)
	if err != nil {
		return nil, fmt.Errorf("NewBlockStore: %w", err)
	}
	r.s = s
	return r, nil
}

// blockMarks are the counters read around a timed phase.
type blockMarks struct {
	ckpts, moved, moves, dev, walBytes int64
	flushes                            int
	flushBusy                          time.Duration
	tel                                telemetry.Snapshot
}

func (r *blockRun) marks(res *result) blockMarks {
	m := blockMarks{ckpts: r.s.Checkpoints()}
	m.moves, m.moved, m.flushes, m.flushBusy = r.tr.mark()
	r.reg.ReadSnapshot(&m.tel)
	if r.dir != "" {
		var err error
		m.dev, err = deviceWriteBytes()
		res.check(err, "read /proc/self/io")
		if fi, err := os.Stat(filepath.Join(r.dir, "wal.log")); err == nil {
			m.walBytes = fi.Size()
		} else {
			res.check(err, "stat wal.log")
		}
	}
	return m
}

func runBlocksHeap(cfg config) (*result, error)    { return runBlocks(cfg, false) }
func runBlocksDurable(cfg config) (*result, error) { return runBlocks(cfg, true) }

func runBlocks(cfg config, durable bool) (*result, error) {
	res := newResult()
	steps := cfg.ops(blockHeapRate)
	if durable {
		steps = cfg.ops(blockDiskRate)
	}
	// Every round spans whole checkpoint periods, so each does the same
	// share of Checkpoint work.
	period := int64(rounds * blockCkptEvery)
	steps = (steps + period - 1) / period * period
	dirFor := func(name string) string {
		if !durable {
			return ""
		}
		return filepath.Join(cfg.workdir, name)
	}

	var r *blockRun
	i := 0
	setup, err := timeSetups(cfg.setups, func() error {
		if r != nil {
			res.check(r.s.Close(), "Close")
			os.RemoveAll(r.dir)
		}
		i++
		var err error
		if r, err = newBlockRun(cfg, dirFor("setup-"+strconv.Itoa(i)), false); err != nil {
			return err
		}
		r.d = newBlockLoop(cfg, r.s, res)
		r.d.prefill()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.endToEnd["setup_s"] = setup
	res.counts["setup_ops"] = r.d.ph.ops

	d := r.d
	_, alloc0 := heapStats()
	m0 := r.marks(res)
	d.measure(steps)
	m1 := r.marks(res)
	alloc1 := totalAlloc()
	liveMB, _ := heapStats()
	verifyBlocks(r.s, d.gen.live, res)

	ops := float64(d.ph.ops)
	res.attempted = d.ph.ops
	res.counts["phase_ops"] = d.ph.ops
	res.counts["phase_steps"] = d.steps
	res.counts["ckpt_samples"] = int64(len(d.ckpts.v))
	res.endToEnd["ops_per_s"] = d.ph.opsPerSec()
	res.rounds["ops_per_s"] = d.ph.rates
	res.latencies("write", d.writes)
	res.latencies("read", d.reads)
	res.endToEnd["space_amp"] = d.ampSum / float64(d.ampN)
	res.endToEnd["move_amp"] = float64(m1.moved-m0.moved) / float64(d.inserted)
	res.endToEnd["alloc_bytes_per_op"] = float64(alloc1-alloc0) / ops
	res.endToEnd["live_heap_mb"] = liveMB
	res.endToEnd["ckpt_per_op"] = float64(m1.ckpts-m0.ckpts) / ops
	if durable {
		fsyncs := m1.tel.WALFsync
		histSub(&fsyncs, &m0.tel.WALFsync)
		res.endToEnd["fsync_per_op"] = float64(fsyncs.Count) / ops
		res.endToEnd["write_amp"] = float64(m1.dev-m0.dev) / float64(d.inserted)
		if err := recoverBlocks(cfg, r, res); err != nil {
			return nil, err
		}
	} else {
		res.check(r.s.Close(), "Close")
	}
	if !cfg.trace {
		return res, nil
	}

	// Traced run: the same stream on a fresh store with the placement
	// tap timing flushes.
	untraced := d.ph
	t, err := newBlockRun(cfg, dirFor("traced"), true)
	if err != nil {
		return nil, err
	}
	defer t.s.Close()
	t.d = newBlockLoop(cfg, t.s, res)
	t.d.prefill()
	heapStats()
	m0 = t.marks(res)
	t.d.measure(steps)
	m1 = t.marks(res)
	verifyBlocks(t.s, t.d.gen.live, res)
	td := t.d
	ops = float64(td.ph.ops)
	res.perLayer["telemetry.overhead"] = untraced.opsPerSec()/td.ph.opsPerSec() - 1
	res.perLayer["engine.flushes_per_kop"] = float64(len(t.tr.flushMs)-m0.flushes) / ops * 1000
	res.perLayer["engine.moves_per_op"] = float64(t.tr.moves-m0.moves) / ops
	res.perLayer["arena.bytes_moved_per_op"] = float64(t.tr.movedBytes-m0.moved) / ops
	t.tr.flushLayer(res, m0.flushes, m0.flushBusy, td.ph.busy)
	ck := td.ckpts.sorted()
	res.perLayer["btl.ckpt_us_p50"] = quantile(ck, 0.50)
	res.perLayer["btl.ckpt_us_p99"] = quantile(ck, 0.99)
	explicit := int64(len(ck))
	res.perLayer["btl.forced_ckpt_per_op"] = float64(m1.ckpts-m0.ckpts-explicit) / ops
	if durable {
		fs := m1.tel.WALFsync
		histSub(&fs, &m0.tel.WALFsync)
		res.perLayer["wal.fsync_us_p50"] = float64(fs.Quantile(0.50)) / 1e3
		res.perLayer["wal.fsync_us_p99"] = float64(fs.Quantile(0.99)) / 1e3
		res.perLayer["wal.fsync_share"] = float64(fs.Sum) / float64(td.ph.busy.Nanoseconds())
		res.counts["fsync_samples"] = fs.Count
		walBytes := m1.walBytes - m0.walBytes
		res.perLayer["wal.bytes_per_op"] = float64(walBytes) / ops
		res.perLayer["arena.device_bytes_per_op"] = float64(m1.dev-m0.dev-walBytes) / ops
	}
	return res, nil
}

// recoverBlocks checkpoints and closes the measured durable store, then
// opens copies of its media: each copy's WAL is first replayed on its
// own (wal.replay_ms), then the whole store is recovered with
// OpenBlockStore (recover_ms) and every block is verified. The first
// copy's records are re-appended into an in-memory file (wal.append_ns).
func recoverBlocks(cfg config, r *blockRun, res *result) error {
	r.s.Checkpoint()
	res.check(r.s.Err(), "final checkpoint")
	res.check(r.s.Close(), "Close")
	var replayMs, recoverMs []float64
	for i := 0; i < recoveries; i++ {
		dir := filepath.Join(cfg.workdir, "recover-"+strconv.Itoa(i))
		if err := copyDir(r.dir, dir); err != nil {
			return err
		}
		if i == 0 && cfg.trace {
			ns, err := reappend(filepath.Join(dir, "wal.log"))
			if err != nil {
				return err
			}
			res.perLayer["wal.append_ns"] = ns
		}
		f, err := faultfs.OS{Dir: dir}.OpenFile("wal.log")
		if err != nil {
			return err
		}
		heapStats()
		t0 := time.Now()
		_, err = wal.Open(f)
		replayMs = append(replayMs, float64(time.Since(t0).Nanoseconds())/1e6)
		res.check(err, "wal.Open")
		res.check(f.Close(), "close wal.log")

		heapStats()
		t0 = time.Now()
		s, rep, err := realloc.OpenBlockStore(realloc.BlockStoreDir(dir))
		recoverMs = append(recoverMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return fmt.Errorf("OpenBlockStore: %w", err)
		}
		if rep.Recovered != len(r.d.gen.live) {
			res.fail("recovered %d blocks, want %d", rep.Recovered, len(r.d.gen.live))
		}
		verifyBlocks(s, r.d.gen.live, res)
		res.check(s.Close(), "Close")
		os.RemoveAll(dir)
	}
	res.endToEnd["recover_ms"] = median(recoverMs)
	res.perLayer["wal.replay_ms"] = median(replayMs)
	res.counts["recover_samples"] = recoveries
	return nil
}

// reappend reads every frame of a log (layout: u32 payload length, u64
// crc64, payload), decodes it with wal.DecodeRecord and times
// re-appending all records through wal.NewWriter into an in-memory
// file, returning ns per record.
func reappend(path string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var recs []wal.Record
	for off := 0; off+12 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+12+n > len(data) {
			break
		}
		rec, err := wal.DecodeRecord(data[off+12 : off+12+n])
		if err != nil {
			return 0, fmt.Errorf("decode frame at %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += 12 + n
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("perfbench: %s holds no records", path)
	}
	f, err := faultfs.NewMemFS(nil).OpenFile("wal.log")
	if err != nil {
		return 0, err
	}
	w := wal.NewWriter(f, 0)
	heapStats()
	t0 := time.Now()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(recs)), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
