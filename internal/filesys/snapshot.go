package filesys

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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

// Snapshot serializes the store's files, ending with a CRC32 trailer over
// the whole stream.
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	files := make([]*fileState, 0, len(s.files))
	for _, st := range s.files {
		files = append(files, st)
	}
	s.mu.Unlock()

	// Sized from the store's own byte count, so the stream is marshalled
	// into one allocation instead of doubling its way up to the store's
	// size on every WAL compaction. A file that grows between the two
	// passes only means the buffer grows as it always did.
	size := 4 + binary.MaxVarintLen64 + 4
	for _, st := range files {
		st.mu.Lock()
		size += 2*binary.MaxVarintLen64 + len(st.name) + 4 + len(st.data)
		st.mu.Unlock()
	}
	buf := buffer.New(size)
	buf.WriteUint32(snapshotMagic)
	buf.WriteUvarint(uint64(len(files)))
	for _, st := range files {
		st.mu.Lock()
		buf.WriteString(st.name)
		buf.WriteUint32(st.version)
		buf.WriteBytes(st.data)
		st.mu.Unlock()
	}
	buf.WriteUint32(crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
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
	return writeFileAtomic(path, s.Snapshot())
}

// writeFileAtomic is the temp+fsync+rename+dir-fsync sequence shared by
// snapshot saves and the WAL's compaction checkpoint.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("filesys: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = tmp.Close(); _ = os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
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
