package filesys

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/buffer"
)

// Store persistence: the stable storage behind reconnectable servers
// (§8.3 assumes "servers [that] keep their state in stable storage") and
// the springfsd daemon's -snapshot / -wal flags. The format reuses the
// project's own marshal stream, framed so a torn or bit-rotted file is
// detected instead of silently loaded:
//
//	[magic u32 = "SFS2"] [n uvarint] n × ([name string] [version u32]
//	[data bytes]) [crc u32 over every preceding byte]
//
// Both directions stream: a checkpoint goes out through one bounded write
// buffer and a restart comes in through one bounded read buffer straight
// into extents, each with a running CRC32, so neither ever holds a second
// copy of the store.

const snapshotMagic = 0x53465332 // "SFS2"

// ErrCorruptSnapshot is the typed error class for a snapshot that fails
// validation — wrong magic, truncated stream, trailing garbage, a name
// given twice, or a CRC mismatch. Restore returns it with the in-memory
// store untouched.
var ErrCorruptSnapshot = errors.New("filesys: corrupt snapshot")

// snapshotChunk is the buffer a checkpoint or a restart streams through,
// and so what either costs in memory whatever the store's size.
const snapshotChunk = 64 << 10

// SnapshotTo streams the store's serialized form to w — files in name
// order, each under its own lock, through a bounded write buffer and a
// running CRC32 that becomes the trailer — so a checkpoint never holds a
// second copy of the store; a writer to the file going out waits for it.
func (s *Store) SnapshotTo(w io.Writer) error {
	return s.snapshotTo(w, bufio.NewWriterSize(nil, snapshotChunk))
}

// snapshotTo is SnapshotTo through the caller's write buffer, which the WAL
// keeps from one compaction to the next.
func (s *Store) snapshotTo(w io.Writer, bw *bufio.Writer) error {
	s.mu.Lock()
	files := make([]*fileState, 0, len(s.files))
	for _, st := range s.files {
		files = append(files, st)
	}
	s.mu.Unlock()
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })

	// bufio's error is sticky and comes back from Flush: writes go unchecked.
	crc := crc32.NewIEEE()
	bw.Reset(io.MultiWriter(w, crc))
	var hdr buffer.Buffer // the fields that frame the files' bytes
	hdr.WriteUint32(snapshotMagic)
	hdr.WriteUvarint(uint64(len(files)))
	_, _ = bw.Write(hdr.Bytes())
	for _, st := range files {
		hdr.Reset()
		st.mu.Lock()
		hdr.WriteString(st.name)
		hdr.WriteUint32(st.version)
		hdr.WriteUvarint(uint64(st.length))
		_, _ = bw.Write(hdr.Bytes())
		for i, ext := range st.extents {
			// A whole extent is written through, past the chunk size, instead
			// of being copied; what it does not hold goes out as zeros.
			n := int(min(st.length-int64(i)*extentSize, extentSize))
			ext = ext[:min(len(ext), n)]
			_, _ = bw.Write(ext)
			_, _ = bw.Write(zeroExtent[:n-len(ext)])
		}
		st.mu.Unlock()
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// Snapshot returns the store's serialized form (see SnapshotTo) in memory.
func (s *Store) Snapshot() []byte {
	var out bytes.Buffer
	_ = s.SnapshotTo(&out) // a bytes.Buffer does not fail
	return out.Bytes()
}

// Restore replaces the store's contents from a snapshot. A snapshot that
// fails validation is rejected with ErrCorruptSnapshot and the store's
// in-memory contents are left exactly as they were.
func (s *Store) Restore(data []byte) error {
	return s.restoreFrom(bytes.NewReader(data))
}

// restoreFrom is Restore from a stream: the snapshot is decoded into a fresh
// file map as it arrives and installed only once its trailer has checked
// out.
func (s *Store) restoreFrom(r io.Reader) error {
	files, err := readSnapshot(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, st := range files {
		st.wal = s.wal
	}
	s.files = files
	s.mu.Unlock()
	return nil
}

// sumReader reads a snapshot through a bounded buffer, summing exactly the
// bytes consumed — the buffer reads ahead, into the trailer — so the running
// CRC is the trailer's value once the last file has been read.
type sumReader struct {
	br  *bufio.Reader
	crc uint32
}

func (r *sumReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (r *sumReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc = crc32.Update(r.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

// length reads a length prefix, refusing one no file or name can have.
func (r *sumReader) length() (int64, error) {
	n, err := binary.ReadUvarint(r)
	if err == nil && n > MaxFileSize {
		err = fmt.Errorf("length %d is past the ceiling of %d", n, int64(MaxFileSize))
	}
	return int64(n), err
}

func (r *sumReader) uint32() (uint32, error) {
	var b [4]byte
	_, err := io.ReadFull(r, b[:])
	return binary.LittleEndian.Uint32(b[:]), err
}

// readSnapshot validates and decodes a snapshot stream into a fresh file
// map, touching no store state. Nothing is sized from a length the stream
// claims: names and extents are allocated as their bytes arrive, so a
// corrupt length costs at most what the stream really holds.
func readSnapshot(src io.Reader) (map[string]*fileState, error) {
	r := &sumReader{br: bufio.NewReaderSize(src, snapshotChunk)}
	magic, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptSnapshot, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: not a store snapshot (magic %#x)", ErrCorruptSnapshot, magic)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: file count: %v", ErrCorruptSnapshot, err)
	}
	files := make(map[string]*fileState)
	var name bytes.Buffer
	var scratch []byte // the extent being filled; kept for the next one when it turns out all zeros
	for i := uint64(0); i < n; i++ {
		nameLen, err := r.length()
		if err == nil {
			name.Reset()
			_, err = io.CopyN(&name, r, nameLen)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: file %d name: %v", ErrCorruptSnapshot, i, err)
		}
		st := &fileState{name: name.String()}
		if files[st.name] != nil {
			// SnapshotTo never writes a name twice; a later entry must not
			// silently replace an earlier one.
			return nil, fmt.Errorf("%w: file %d: name %q repeats an earlier file", ErrCorruptSnapshot, i, st.name)
		}
		if st.version, err = r.uint32(); err != nil {
			return nil, fmt.Errorf("%w: file %d version: %v", ErrCorruptSnapshot, i, err)
		}
		if st.length, err = r.length(); err != nil {
			return nil, fmt.Errorf("%w: file %d length: %v", ErrCorruptSnapshot, i, err)
		}
		// A file within one extent gets an extent its own size; every other
		// extent is whole, and one that holds only zeros stays a hole.
		size := int(min(st.length, extentSize))
		for left := st.length; left > 0; left -= extentSize {
			if len(scratch) != size {
				scratch = make([]byte, size)
			}
			got := scratch[:min(left, extentSize)]
			if _, err := io.ReadFull(r, got); err != nil {
				return nil, fmt.Errorf("%w: file %d data: %v", ErrCorruptSnapshot, i, err)
			}
			if bytes.Equal(got, zeroExtent[:len(got)]) {
				st.extents = append(st.extents, nil)
				continue
			}
			clear(scratch[len(got):])
			st.extents, scratch = append(st.extents, scratch), nil
		}
		files[st.name] = st
	}
	sum := r.crc
	stored, err := r.uint32()
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable CRC trailer: %v", ErrCorruptSnapshot, err)
	}
	if sum != stored {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %#x, computed %#x)", ErrCorruptSnapshot, stored, sum)
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after %d files", ErrCorruptSnapshot, n)
	}
	return files, nil
}

// SaveFile writes the store snapshot to path crash-consistently: the bytes
// go to a temp file in the same directory, are fsynced, renamed over the
// destination, and the directory is fsynced — so at every instant path
// holds either the previous complete snapshot or the new one, never a
// torn mixture.
func (s *Store) SaveFile(path string) error {
	return writeFileAtomic(path, s.SnapshotTo)
}

// writeFileAtomic is the temp+fsync+rename+dir-fsync sequence shared by
// snapshot saves and the WAL's compaction checkpoint; fill writes the data.
func writeFileAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("filesys: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if err := fill(tmp); err != nil {
		cleanup()
		return fmt.Errorf("filesys: writing %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("filesys: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("filesys: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("filesys: installing %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("filesys: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("filesys: syncing dir %s: %w", dir, err)
	}
	return nil
}

// LoadFile restores the store from path, streaming it (see restoreFrom); a
// missing file leaves the store empty (first boot).
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return s.restoreFrom(f)
}

// Store exposes the service's backing store (for persistence wiring).
func (s *Service) Store() *Store { return s.store }
