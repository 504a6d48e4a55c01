// Write-ahead log: the durability layer behind springfsd -wal. Every
// store mutation (create, remove, write) is applied in memory and appended
// to an on-disk log before the operation is acknowledged; a crashed server
// reopens the same directory and replays the log over the latest snapshot
// to recover exactly the acknowledged state.
//
// Records are written as they arrive and synced in groups: a committer
// goroutine writes what is queued, fsyncs once and wakes every waiter whose
// record was written before the fsync began, and a writer whose record
// carries a payload writes the queue itself as soon as it has enqueued.
// There is no timer: the batch after this one gathers while this one's
// fsync is in progress, so a lone writer pays one fsync and n concurrent
// writers share one. E19 sweeps the batch cap against throughput.
//
// On-disk format, per record:
//
//	[len u32] [crc u32 = CRC32-IEEE(payload)] [payload]
//	payload:  [op u8] [name string]            op = create | remove
//	          [op u8] [name string] [offset varint] [version u32] [data bytes]
//
// Replay validates the entire log before applying anything: a record that
// extends past the end of the file is a torn tail (the crash cut a batch
// write short) and is truncated away; a complete record whose CRC or
// structure is wrong is corruption and fails recovery with the store
// untouched. Records are idempotent — create tolerates an existing file,
// remove a missing one, and write carries its resulting version — so
// replaying over a snapshot that already contains some of the log's
// effects (the compaction window) converges to the same state.
package filesys

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/buffer"
	"repro/internal/durable"
	"repro/internal/scstats"
)

// WAL record opcodes.
const (
	walOpCreate byte = 1
	walOpRemove byte = 2
	walOpWrite  byte = 3
)

// walHeaderSize is the per-record framing overhead: length + CRC.
const walHeaderSize = 8

// maxWALRecord bounds one record's payload; a length field beyond it is
// corruption, not an enormous record.
const maxWALRecord = 1 << 30

// Snapshot and log file names inside a WAL directory.
const (
	SnapshotFileName = "snapshot.sfs"
	LogFileName      = "wal.log"
)

// Errors returned by log recovery and by mutations racing shutdown.
var (
	// ErrCorruptLog is the typed error class for a log record that is
	// structurally complete but invalid — CRC mismatch, bad opcode,
	// undecodable payload. Recovery fails and the store is untouched.
	ErrCorruptLog = errors.New("filesys: corrupt write-ahead log")
	// ErrTornLogTail reports a final record cut short by a crash
	// mid-write. OpenWAL handles it by truncating the tail and recovering
	// the valid prefix; it is an error only from strict replay (tests).
	ErrTornLogTail = errors.New("filesys: torn write-ahead log tail")
	// ErrWALClosed fails mutations whose commit raced the log shutting
	// down (or being killed); the mutation was never acknowledged.
	ErrWALClosed = errors.New("filesys: write-ahead log closed")
)

// WAL gauges on the telemetry plane. appends counts records committed,
// syncs counts fsyncs — their ratio is the achieved group-commit batch
// size. log_bytes is the live log length (drops at compaction).
var (
	gWALAppends     = scstats.CounterFor("wal.appends")
	gWALSyncs       = scstats.CounterFor("wal.syncs")
	gWALBytes       = scstats.GaugeFor("wal.log_bytes")
	gWALCompactions = scstats.CounterFor("wal.compactions")
	gWALReplayed    = scstats.CounterFor("wal.records_replayed")
	gWALTornTails   = scstats.CounterFor("wal.torn_tails_truncated")
)

// WALOptions tune the group-commit and compaction behavior. Zero fields
// take the documented defaults.
type WALOptions struct {
	// MaxBatch caps the queued records the committer writes before one
	// fsync (payload writers may add theirs). Default 256.
	MaxBatch int
	// CompactBytes is the least log size that triggers a snapshot checkpoint
	// and log truncation; the log is also let grow to the size of the store
	// it would checkpoint, so checkpoints at most double the bytes written.
	// Default 4MiB; negative disables compaction.
	CompactBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.MaxBatch == 0 {
		o.MaxBatch = 256
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
	return o
}

// walRecord is one logged mutation.
type walRecord struct {
	op      byte
	name    string
	offset  int64
	version uint32
	data    []byte
}

// walPending is one mutation waiting for its group commit. The data slice
// is only referenced until the record is written, so mutators can enqueue
// their argument bytes without copying. Pendings are pooled: done has room
// for the one signal a commit sends, so it is left empty by the one wait
// that receives it and the pending goes round again.
type walPending struct {
	rec  walRecord
	done chan struct{}
	err  error
}

var pendingPool = sync.Pool{New: func() any { return &walPending{done: make(chan struct{}, 1)} }}

// finish reports the record's commit, successful or not, to its waiter.
func (p *walPending) finish(err error) {
	p.err = err
	p.done <- struct{}{}
}

// wait blocks until the record's batch is on disk, and recycles p. A nil
// pending (store without a WAL) commits trivially.
func (p *walPending) wait() error {
	if p == nil {
		return nil
	}
	<-p.done
	err := p.err
	p.rec, p.err = walRecord{}, nil
	pendingPool.Put(p)
	return err
}

// WAL is an open write-ahead log bound to a store.
type WAL struct {
	dir   string
	store *Store
	opts  WALOptions

	// The committer's own: the records its fsync acknowledges, the log
	// length the next checkpoint is due at and the checkpoint's buffer.
	syncing   []*walPending
	compactAt int64
	ckpt      *bufio.Writer

	// wmu orders writes to the log, never taken under a store or file lock;
	// written is the records on it that no fsync has covered yet.
	wmu     sync.Mutex
	f       durable.File
	size    int64
	taken   []*walPending
	batch   buffer.Buffer
	written []*walPending

	mu     sync.Mutex
	queue  []*walPending
	closed bool
	killed bool

	kick chan struct{}
	done chan struct{}
}

// OpenWAL opens (creating if needed) the durability directory for store:
// it loads the snapshot, replays the log over it — truncating a torn tail,
// rejecting corruption — attaches the log to the store so every further
// mutation is group-committed before acknowledgment, and starts the
// committer. The store should be empty; recovery replaces its contents.
// Snapshot and log are both streamed through bounded buffers: a restart
// costs the store it rebuilds, not a copy of the files it reads.
func OpenWAL(dir string, store *Store, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	fsys := durable.Disk()
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filesys: wal dir: %w", err)
	}
	if err := store.LoadFile(filepath.Join(dir, SnapshotFileName)); err != nil {
		return nil, err
	}
	f, err := fsys.OpenFile(filepath.Join(dir, LogFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filesys: opening wal: %w", err)
	}
	goodLen, err := replayLogFile(f, store)
	if err == nil {
		// A log, or a WAL directory, this open created lasts once its parent is synced.
		err = errors.Join(fsys.SyncDir(dir), fsys.SyncDir(filepath.Dir(dir)))
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	w := &WAL{
		dir:       dir,
		store:     store,
		opts:      opts,
		f:         f,
		size:      goodLen,
		compactAt: opts.CompactBytes,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	gWALBytes.Add(goodLen)
	store.AttachWAL(w)
	go w.committer()
	return w, nil
}

// replayLogFile recovers store from the open log f, in two streamed passes:
// the whole log is validated before any of it is applied. A torn tail is
// cut off; f is left positioned at the end of the valid prefix, whose
// length is returned.
func replayLogFile(f durable.File, store *Store) (goodLen int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("filesys: reading wal: %w", err)
	}
	_, goodLen, err = scanLog(f, fi.Size(), nil)
	if err != nil && !errors.Is(err, ErrTornLogTail) {
		return 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("filesys: rewinding wal: %w", err)
	}
	n, _, err := scanLog(f, goodLen, store.applyRecord)
	if err != nil {
		return 0, err
	}
	gWALReplayed.Add(int64(n))
	if goodLen < fi.Size() {
		if err := f.Truncate(goodLen); err != nil {
			return 0, fmt.Errorf("filesys: truncating torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("filesys: syncing truncated wal: %w", err)
		}
		gWALTornTails.Add(1)
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		return 0, fmt.Errorf("filesys: seeking wal end: %w", err)
	}
	return goodLen, nil
}

// append enqueues one record for the next group commit. Callers may hold
// store or file locks; only w.mu is taken here.
func (w *WAL) append(rec walRecord) *walPending {
	p := pendingPool.Get().(*walPending)
	p.rec = rec
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		p.finish(ErrWALClosed)
		return p
	}
	w.queue = append(w.queue, p)
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return p
}

// flush writes what is queued, so the log refers to no caller's data.
func (w *WAL) flush() {
	w.wmu.Lock()
	w.writeQueued(math.MaxInt)
	w.wmu.Unlock()
}

// Close flushes every queued record, compacts the log into a snapshot,
// and stops the committer. Mutations arriving after Close fail with
// ErrWALClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done

	// The committer has drained and exited; checkpoint so restart needs
	// no replay, then release the file.
	w.wmu.Lock()
	defer w.wmu.Unlock()
	err := w.compact()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	gWALBytes.Add(-w.size)
	return err
}

// Kill simulates a SIGKILL for tests: the committer stops without
// flushing, queued-but-unsynced records are failed (their mutations were
// never acknowledged, and a restart will not recover them), and the file
// is abandoned as-is — mid-batch, if the kill raced a write.
func (w *WAL) Kill() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.killed = true
	dropped := w.queue
	w.queue = nil
	w.mu.Unlock()
	acknowledge(dropped, ErrWALClosed)
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
	_ = w.f.Close()
	gWALBytes.Add(-w.size)
}

// committer is the group-commit loop: write what is queued, at most
// MaxBatch records, fsync once and acknowledge every record written before
// the fsync began; compaction runs between fsyncs, on this goroutine.
func (w *WAL) committer() {
	defer close(w.done)
	for {
		w.wmu.Lock()
		live := w.writeQueued(w.opts.MaxBatch)
		w.written, w.syncing = w.syncing, w.written
		w.wmu.Unlock()
		if !live { // killed: nothing is written any more
			acknowledge(w.syncing, ErrWALClosed)
			return
		}
		if len(w.syncing) > 0 {
			err := w.f.Sync()
			if err != nil {
				err = fmt.Errorf("filesys: wal sync: %w", err)
			}
			w.syncing = acknowledge(w.syncing, err)
			w.wmu.Lock()
			w.maybeCompact()
			w.wmu.Unlock()
			continue
		}
		w.mu.Lock()
		idle, closed := len(w.queue) == 0, w.closed
		w.mu.Unlock()
		if idle && closed {
			return
		}
		if idle {
			<-w.kick
		}
	}
}

// acknowledge reports the records in ps durable (err nil, counted as one
// sync's) or lost, and returns ps emptied.
func acknowledge(ps []*walPending, err error) []*walPending {
	if err == nil && len(ps) > 0 {
		gWALAppends.Add(int64(len(ps)))
		gWALSyncs.Add(1)
	}
	for _, p := range ps {
		p.finish(err)
	}
	clear(ps)
	return ps[:0]
}

// A record's write data of walRefBytes or more is written to the log from
// where it lies, behind a header that already covers it, instead of being
// copied into the batch buffer; the buffer itself is written out whenever
// it passes walChunk, so it never grows with a burst.
const (
	walRefBytes = 4 << 10
	walChunk    = 64 << 10
)

// writeQueued writes up to max queued records to the log in order, each
// framed once, in place, and moves them to written with their data let go
// of; a failed write fails them. Once killed it reports false. wmu is held.
func (w *WAL) writeQueued(max int) bool {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return false
	}
	n := min(len(w.queue), max)
	w.taken = append(w.taken[:0], w.queue[:n]...)
	rest := copy(w.queue, w.queue[n:])
	clear(w.queue[rest:])
	w.queue = w.queue[:rest]
	w.mu.Unlock()
	out := &w.batch
	out.Reset()
	var wrote int64
	var err error
	write := func(p []byte) {
		if err != nil || len(p) == 0 {
			return
		}
		n, werr := w.f.Write(p)
		wrote += int64(n)
		if werr != nil {
			err = fmt.Errorf("filesys: wal write: %w", werr)
		}
	}
	for _, p := range w.taken {
		ref := frameRecord(out, &p.rec)
		if ref != nil || out.Size() >= walChunk {
			write(out.Bytes())
			write(ref)
			out.Reset()
		}
		p.rec.data = nil
	}
	write(out.Bytes())
	if err != nil {
		acknowledge(w.taken, err)
		return true
	}
	w.size += wrote
	gWALBytes.Add(wrote)
	w.written = append(w.written, w.taken...)
	clear(w.taken)
	return true
}

// maybeCompact checkpoints once the log is longer than both CompactBytes
// and the store a checkpoint would write, which bounds the bytes
// checkpoints add at the bytes logged. The store is only measured when the
// log has passed the mark the last measurement set. wmu is held.
func (w *WAL) maybeCompact() {
	if w.opts.CompactBytes <= 0 || w.size <= w.compactAt {
		return
	}
	if held := w.store.bytesHeld(); w.size <= held {
		w.compactAt = held
		return
	}
	// A failed compaction loses nothing: the log is intact and the
	// threshold will trip again after the next batch.
	_ = w.compact()
}

// compact checkpoints the store into the snapshot file (atomically: the
// previous snapshot survives any crash) and then truncates the log. Every
// record in the log at this moment is already reflected in the store —
// mutations apply in memory before they enqueue — so the snapshot
// subsumes the log and acknowledges what no fsync has; a crash between the
// rename and the truncate replays log records over a snapshot that
// already contains them, which the idempotent record semantics absorb.
// wmu is held.
func (w *WAL) compact() error {
	if w.ckpt == nil {
		w.ckpt = bufio.NewWriterSize(nil, snapshotChunk)
	}
	fill := func(f io.Writer) error { return w.store.snapshotTo(f, w.ckpt) }
	if err := durable.Replace(durable.Disk(), filepath.Join(w.dir, SnapshotFileName), fill); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("filesys: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("filesys: rewinding wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("filesys: syncing truncated wal: %w", err)
	}
	gWALBytes.Add(-w.size)
	w.size = 0
	w.compactAt = w.opts.CompactBytes
	w.written = acknowledge(w.written, nil)
	gWALCompactions.Add(1)
	return nil
}

// frameRecord appends rec to out as [len][crc][payload], header patched
// once the payload is in place. Write data of walRefBytes or more is left
// out and returned instead: the caller writes it right behind, where the
// header's length and CRC already account for it.
func frameRecord(out *buffer.Buffer, rec *walRecord) (ref []byte) {
	hdr := out.Size()
	out.WriteUint64(0)
	out.WriteByte(rec.op)
	out.WriteString(rec.name)
	if rec.op == walOpWrite {
		out.WriteVarint(rec.offset)
		out.WriteUint32(rec.version)
		if len(rec.data) >= walRefBytes {
			out.WriteUvarint(uint64(len(rec.data)))
			ref = rec.data
		} else {
			out.WriteBytes(rec.data)
		}
	}
	head := out.Bytes()[hdr+walHeaderSize:]
	binary.LittleEndian.PutUint32(out.Bytes()[hdr:], uint32(len(head)+len(ref)))
	binary.LittleEndian.PutUint32(out.Bytes()[hdr+4:], crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, ref))
	return ref
}

// decodeRecord parses one record payload. Every failure is corruption:
// the framing already established the payload is complete.
func decodeRecord(payload []byte) (walRecord, error) {
	buf := buffer.FromParts(payload, nil)
	op, err := buf.ReadByte()
	if err != nil {
		return walRecord{}, fmt.Errorf("%w: missing opcode", ErrCorruptLog)
	}
	name, err := buf.ReadString()
	if err != nil {
		return walRecord{}, fmt.Errorf("%w: record name: %v", ErrCorruptLog, err)
	}
	rec := walRecord{op: op, name: name}
	switch op {
	case walOpCreate, walOpRemove:
		if buf.Len() != 0 {
			return walRecord{}, fmt.Errorf("%w: %d trailing bytes in op %d", ErrCorruptLog, buf.Len(), op)
		}
	case walOpWrite:
		if rec.offset, err = buf.ReadVarint(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write offset: %v", ErrCorruptLog, err)
		}
		if rec.version, err = buf.ReadUint32(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write version: %v", ErrCorruptLog, err)
		}
		if rec.data, err = buf.ReadBytes(); err != nil {
			return walRecord{}, fmt.Errorf("%w: write data: %v", ErrCorruptLog, err)
		}
		if buf.Len() != 0 {
			return walRecord{}, fmt.Errorf("%w: %d trailing bytes in write record", ErrCorruptLog, buf.Len())
		}
		if err := checkRange(rec.offset, len(rec.data)); err != nil {
			return walRecord{}, fmt.Errorf("%w: %v", ErrCorruptLog, err)
		}
	default:
		return walRecord{}, fmt.Errorf("%w: unknown opcode %d", ErrCorruptLog, op)
	}
	return rec, nil
}

// scanLog reads total bytes of log from r in bounded chunks — a read buffer
// and the one record being checked — validating every record and, when
// apply is set, applying each as it goes. It returns the number of valid
// records and the byte length of the prefix they make up. A record cut off
// by the end of the stream yields ErrTornLogTail, and so does a hole a lost
// unsynced write left (zeros for a header, or for a record's data by
// reference), since no acknowledged record follows one; any other
// complete-but-invalid record yields ErrCorruptLog.
func scanLog(r io.Reader, total int64, apply func(*walRecord)) (n int, goodLen int64, err error) {
	br := bufio.NewReaderSize(r, snapshotChunk)
	var hdr [walHeaderSize]byte
	var payload []byte
	off := int64(0)
	for off < total {
		if total-off < walHeaderSize {
			return n, off, fmt.Errorf("%w: %d header bytes at offset %d", ErrTornLogTail, total-off, off)
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return n, off, fmt.Errorf("filesys: reading wal: %w", err)
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen == 0 && crc == 0 {
			return n, off, fmt.Errorf("%w: zeros at offset %d, where a write was lost", ErrTornLogTail, off)
		}
		if plen > maxWALRecord {
			return n, off, fmt.Errorf("%w: record length %d at offset %d", ErrCorruptLog, plen, off)
		}
		if off+walHeaderSize+plen > total {
			return n, off, fmt.Errorf("%w: record needs %d bytes, %d remain at offset %d",
				ErrTornLogTail, plen, total-off-walHeaderSize, off)
		}
		payload = slices.Grow(payload[:0], int(plen))[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return n, off, fmt.Errorf("filesys: reading wal: %w", err)
		}
		if sum := crc32.ChecksumIEEE(payload); sum != crc {
			if rec, err := decodeRecord(payload); err == nil && len(rec.data) >= walRefBytes &&
				len(bytes.TrimLeft(rec.data, "\x00")) == 0 {
				return n, off, fmt.Errorf("%w: the data at offset %d reads as zeros, its write lost", ErrTornLogTail, off)
			}
			return n, off, fmt.Errorf("%w: CRC mismatch at offset %d (stored %#x, computed %#x)",
				ErrCorruptLog, off, crc, sum)
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return n, off, fmt.Errorf("%w at offset %d", derr, off)
		}
		if apply != nil {
			apply(&rec)
		}
		n++
		off += walHeaderSize + plen
	}
	return n, off, nil
}

// ReplayLog validates data as a WAL byte stream and, only when every
// record is valid to the end, applies them all to the store. Any error —
// corruption or a torn tail — leaves the store untouched; OpenWAL is the
// forgiving path that recovers the valid prefix of a torn log.
func (s *Store) ReplayLog(data []byte) (int, error) {
	if _, _, err := scanLog(bytes.NewReader(data), int64(len(data)), nil); err != nil {
		return 0, err
	}
	n, _, err := scanLog(bytes.NewReader(data), int64(len(data)), s.applyRecord)
	return n, err
}

// applyRecord applies one decoded log record; replay applies them in order.
// Application is idempotent: create of an existing file and remove of a
// missing one are no-ops, and a write sets the version it originally
// produced. rec.data is only borrowed.
func (s *Store) applyRecord(rec *walRecord) {
	switch rec.op {
	case walOpCreate:
		s.mu.Lock()
		if _, ok := s.files[rec.name]; !ok {
			s.files[rec.name] = &fileState{name: rec.name, wal: s.wal}
		}
		s.mu.Unlock()
	case walOpRemove:
		s.mu.Lock()
		delete(s.files, rec.name)
		s.mu.Unlock()
	case walOpWrite:
		s.mu.Lock()
		st, ok := s.files[rec.name]
		s.mu.Unlock()
		if !ok {
			// A write whose file is gone: the log order put the remove
			// first (orphan write). The in-memory outcome was a write to
			// an unlinked file, so dropping it converges.
			return
		}
		st.mu.Lock()
		_ = st.apply(rec.offset, rec.data) // in range: decodeRecord checked
		st.version = rec.version
		st.mu.Unlock()
	}
}
