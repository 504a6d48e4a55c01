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
// Legacy "SFS1" snapshots (no trailer) are still accepted by Restore so a
// pre-existing -snapshot file survives the upgrade.

const (
	snapshotMagicV1 = 0x53465331 // "SFS1", no CRC trailer
	snapshotMagic   = 0x53465332 // "SFS2", CRC32 trailer
)

// ErrCorruptSnapshot is the typed error class for a snapshot that fails
// validation — wrong magic, truncated stream, trailing garbage, or a
// CRC mismatch. Restore returns it with the in-memory store untouched.
var ErrCorruptSnapshot = errors.New("filesys: corrupt snapshot")

// snapshotChunk is the write buffer a checkpoint streams through, and so
// what a checkpoint costs in memory whatever the store's size.
const snapshotChunk = 64 << 10

// SnapshotTo streams the store's serialized form to w — files in name
// order, each under its own lock, through a bounded write buffer and a
// running CRC32 that becomes the trailer — so a checkpoint never holds a
// second copy of the store; a writer to the file going out waits for it.
func (s *Store) SnapshotTo(w io.Writer) error {
	s.mu.Lock()
	files := make([]*fileState, 0, len(s.files))
	for _, st := range s.files {
		files = append(files, st)
	}
	s.mu.Unlock()
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })

	// bufio's error is sticky and comes back from Flush: writes go unchecked.
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), snapshotChunk)
	var hdr buffer.Buffer // the fields that frame the files' bytes
	hdr.WriteUint32(snapshotMagic)
	hdr.WriteUvarint(uint64(len(files)))
	_, _ = bw.Write(hdr.Bytes())
	for _, st := range files {
		hdr.Reset()
		st.mu.Lock()
		hdr.WriteString(st.name)
		hdr.WriteUint32(st.version)
		hdr.WriteUvarint(uint64(len(st.data)))
		_, _ = bw.Write(hdr.Bytes())
		_, _ = bw.Write(st.data) // past the chunk size bufio writes through instead of copying
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
	files, err := parseSnapshot(data)
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

// parseSnapshot validates and decodes a snapshot stream into a fresh file
// map, touching no store state.
func parseSnapshot(data []byte) (map[string]*fileState, error) {
	buf := buffer.FromParts(data, nil)
	magic, err := buf.ReadUint32()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptSnapshot, err)
	}
	switch magic {
	case snapshotMagic:
		// The trailer is the last 4 bytes; everything before it is summed.
		if len(data) < 8 {
			return nil, fmt.Errorf("%w: %d bytes is too short for the CRC trailer", ErrCorruptSnapshot, len(data))
		}
		stored, err := buffer.FromParts(data[len(data)-4:], nil).ReadUint32()
		if err != nil {
			return nil, fmt.Errorf("%w: unreadable CRC trailer", ErrCorruptSnapshot)
		}
		if sum := crc32.ChecksumIEEE(data[:len(data)-4]); sum != stored {
			return nil, fmt.Errorf("%w: CRC mismatch (stored %#x, computed %#x)", ErrCorruptSnapshot, stored, sum)
		}
	case snapshotMagicV1:
		// Legacy format: no trailer to verify.
	default:
		return nil, fmt.Errorf("%w: not a store snapshot (magic %#x)", ErrCorruptSnapshot, magic)
	}
	n, err := buf.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: file count: %v", ErrCorruptSnapshot, err)
	}
	files := make(map[string]*fileState, n)
	for i := uint64(0); i < n; i++ {
		name, err := buf.ReadString()
		if err != nil {
			return nil, fmt.Errorf("%w: file %d name: %v", ErrCorruptSnapshot, i, err)
		}
		version, err := buf.ReadUint32()
		if err != nil {
			return nil, fmt.Errorf("%w: file %d version: %v", ErrCorruptSnapshot, i, err)
		}
		p, err := buf.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: file %d data: %v", ErrCorruptSnapshot, i, err)
		}
		files[name] = &fileState{name: name, version: version, data: append([]byte(nil), p...)}
	}
	if magic == snapshotMagic && buf.Len() != 4 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d files", ErrCorruptSnapshot, buf.Len()-4, n)
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

// LoadFile restores the store from path; a missing file leaves the store
// empty (first boot).
func (s *Store) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	return s.Restore(data)
}

// Store exposes the service's backing store (for persistence wiring).
func (s *Service) Store() *Store { return s.store }
