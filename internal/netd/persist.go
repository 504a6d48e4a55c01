package netd

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/kernel"
)

// This file is the durable half of the liveness layer (E19): a server
// started with a state file persists its session/lease table and its
// labeled exports, and a restarted server rejoins the network under its
// old per-process instance identity. Peers that reconnect within the
// lease grace period rejoin their old sessions — their hellos carry the
// same instance the restored table is keyed by — so references survive
// the restart and proxy doors held remotely keep working, provided the
// restarted server can rebind each labeled export key to an equivalent
// door (the Rebinder's job). Unlabeled exports (per-open file doors and
// other transient state) are deliberately not recovered: calls on them
// fail with kernel.ErrBadHandle, which is retryable, and the
// reconnectable/replicon subcontracts re-resolve.
//
// The state file is advisory, not a log: it is rewritten atomically by
// the liveness sweeper whenever the table is dirty, so after a crash it
// may be one sweep tick stale. The loss window is bounded by keySlack —
// a restarted server skips far past the persisted key counter, so a key
// handed out inside the window can never be reassigned to a different
// door; a stale key fails cleanly instead of aliasing.

// keySlack is how far past the persisted next-key counter a restarted
// server resumes. The state file may be up to one sweep tick stale, so
// keys minted inside that window were never persisted; skipping the
// slack guarantees they are never reissued for a different door.
const keySlack = 1 << 20

// persistedRef is one export key held by a session, with its count.
type persistedRef struct {
	Key   uint64 `json:"key"`
	Count int    `json:"count"`
}

// persistedSession is one peer's lease as written to the state file.
type persistedSession struct {
	Instance uint64         `json:"instance"`
	Epoch    uint64         `json:"epoch"`
	Addr     string         `json:"addr,omitempty"`
	Refs     []persistedRef `json:"refs,omitempty"`
}

// persistedExport is one labeled export table entry.
type persistedExport struct {
	Key   uint64 `json:"key"`
	Label string `json:"label"`
}

// persistedState is the state file's JSON schema.
type persistedState struct {
	Instance uint64             `json:"instance"`
	NextKey  uint64             `json:"next_key"`
	Exports  []persistedExport  `json:"exports,omitempty"`
	Sessions []persistedSession `json:"sessions,omitempty"`
}

// markDirtyLocked flags the persisted tables as changed; the sweeper
// flushes on its next tick. Callers hold s.mu. A no-op without a state
// file.
func (s *Server) markDirtyLocked() {
	if s.cfg.StateFile != "" {
		s.stateDirty = true
	}
}

// captureStateLocked snapshots the durable subset of the server's
// tables: the instance identity, the key counter, labeled exports, and
// every session's refcounts on labeled keys. Callers hold s.mu.
func (s *Server) captureStateLocked() *persistedState {
	ps := &persistedState{Instance: s.instance, NextKey: s.nextKey}
	for key, label := range s.labels {
		ps.Exports = append(ps.Exports, persistedExport{Key: key, Label: label})
	}
	for _, sess := range s.sessions {
		p := persistedSession{Instance: sess.peer, Epoch: sess.epoch, Addr: sess.addr}
		for key, n := range sess.refs {
			if _, labeled := s.labels[key]; labeled {
				p.Refs = append(p.Refs, persistedRef{Key: key, Count: n})
			}
		}
		ps.Sessions = append(ps.Sessions, p)
	}
	return ps
}

// flushState writes the state file if the tables changed since the last
// flush. Called by the sweeper each tick and by Close; a write failure
// leaves the dirty flag set so the next tick retries.
func (s *Server) flushState() {
	s.mu.Lock()
	if s.cfg.StateFile == "" || !s.stateDirty || s.closed {
		s.mu.Unlock()
		return
	}
	s.stateDirty = false
	ps := s.captureStateLocked()
	path := s.cfg.StateFile
	s.mu.Unlock()
	data, err := json.Marshal(ps)
	if err == nil {
		err = writeStateFileAtomic(path, data)
	}
	if err != nil {
		s.mu.Lock()
		s.stateDirty = true
		s.mu.Unlock()
	}
}

// writeStateFileAtomic writes data to path crash-safely: temp file in
// the same directory, fsync, rename over the target, directory fsync. A
// crash at any point leaves either the old file or the new one, never a
// torn mix.
func writeStateFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".netd-state-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadState restores the persisted tables into a freshly constructed
// server. Called from Start before any goroutine runs, so no locking is
// needed. A missing state file is a first boot; a corrupt one is an
// error — silently minting a fresh identity would strand every peer's
// references until their leases lapse, which is exactly what the state
// file exists to avoid.
func (s *Server) loadState() error {
	data, err := os.ReadFile(s.cfg.StateFile)
	if os.IsNotExist(err) {
		s.stateDirty = true // persist the fresh identity promptly
		return nil
	}
	if err != nil {
		return fmt.Errorf("netd: read state file: %w", err)
	}
	var ps persistedState
	if err = json.Unmarshal(data, &ps); err == nil {
		err = ps.check()
	}
	if err != nil {
		return fmt.Errorf("netd: corrupt state file %s: %w", s.cfg.StateFile, err)
	}
	s.instance = ps.Instance
	if ps.NextKey >= s.nextKey {
		s.nextKey = ps.NextKey + keySlack
	}
	now := time.Now()
	for _, p := range ps.Sessions {
		sess := &session{
			peer:  p.Instance,
			epoch: p.Epoch,
			addr:  p.Addr,
			refs:  make(map[uint64]int),
			conns: make(map[*conn]struct{}),
			// The peer is disconnected until it redials; its lease clock
			// starts at restart, giving it a full grace period to return.
			downSince: now,
		}
		for _, r := range p.Refs {
			if r.Count > 0 {
				sess.refs[r.Key] = r.Count
			}
		}
		s.sessions[p.Instance] = sess
		gSessions.Add(1)
	}
	for _, pe := range ps.Exports {
		if s.cfg.Rebinder == nil {
			break
		}
		ref, ok := s.cfg.Rebinder(pe.Label)
		if !ok {
			continue // the labeled object no longer exists; stale keys fail cleanly
		}
		held := make(map[*session]int)
		for _, sess := range s.sessions {
			if n := sess.refs[pe.Key]; n > 0 {
				held[sess] = n
			}
		}
		if len(held) == 0 {
			ref.Release() // no peer holds it; nothing to rebind for
			continue
		}
		doorID := ref.DoorID()
		ist := &dispatch.InlineState{}
		if ref.InlineHint() {
			ist.Promote()
		}
		s.exports[pe.Key] = &exportEntry{h: s.dom.AdoptRef(ref), held: held, inline: ist}
		s.byDoor[doorID] = pe.Key
		s.labels[pe.Key] = pe.Label
		gExports.Add(1)
	}
	// Refs to keys that were not rebound are dead: drop them so the
	// session tables agree with the export table.
	for _, sess := range s.sessions {
		for key := range sess.refs {
			if _, ok := s.exports[key]; !ok {
				delete(sess.refs, key)
			}
		}
	}
	s.stateDirty = true
	return nil
}

// check refuses what no server writes, before loadState changes anything:
// a key counter the restart's keySlack would wrap past zero, an export key
// at or past the counter — either would have the restarted server reissue
// a key a peer still holds — and an export key or a peer listed twice.
func (ps *persistedState) check() error {
	if ps.NextKey > math.MaxUint64-keySlack {
		return fmt.Errorf("next_key %d leaves no room for the restart's key slack", ps.NextKey)
	}
	seen := make(map[[2]uint64]bool) // {0, export key}, {1, peer instance}
	for _, e := range ps.Exports {
		if e.Key >= ps.NextKey || seen[[2]uint64{0, e.Key}] {
			return fmt.Errorf("export key %d is past next_key %d or listed twice", e.Key, ps.NextKey)
		}
		seen[[2]uint64{0, e.Key}] = true
	}
	for _, p := range ps.Sessions {
		if seen[[2]uint64{1, p.Instance}] {
			return fmt.Errorf("peer %#x listed twice", p.Instance)
		}
		seen[[2]uint64{1, p.Instance}] = true
	}
	return nil
}

// LabelDoor assigns a stable label to the door behind ref, so that if
// this server persists its state and restarts, the Rebinder can
// reattach the same export key to an equivalent door. ref is borrowed:
// LabelDoor does not take ownership. Doors labeled before they are
// first exported are remembered and labeled at export time.
func (s *Server) LabelDoor(ref kernel.Ref, label string) {
	if !ref.Valid() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key, ok := s.byDoor[ref.DoorID()]; ok {
		s.labels[key] = label
		s.markDirtyLocked()
		return
	}
	s.pendingLabels[ref.DoorID()] = label
}

// RootRebinder builds a Rebinder resolving the "root:<name>/<i>" labels
// the server assigns automatically to doors marshalled through published
// bootstrap roots: it re-marshals the named root and picks out door i.
// Compose it with service-specific label families:
//
//	rebind := netd.RootRebinder(roots)
//	netd.WithRebinder(func(label string) (kernel.Ref, bool) {
//	        if ref, ok := rebind(label); ok { return ref, true }
//	        return myServiceRebind(label)
//	})
func RootRebinder(roots map[string]*core.Object) func(string) (kernel.Ref, bool) {
	return func(label string) (kernel.Ref, bool) {
		rest, ok := strings.CutPrefix(label, "root:")
		if !ok {
			return kernel.Ref{}, false
		}
		slash := strings.LastIndex(rest, "/")
		if slash < 0 {
			return kernel.Ref{}, false
		}
		name := rest[:slash]
		i, err := strconv.Atoi(rest[slash+1:])
		if err != nil || i < 0 {
			return kernel.Ref{}, false
		}
		obj, ok := roots[name]
		if !ok {
			return kernel.Ref{}, false
		}
		tmp := buffer.New(64)
		if err := obj.MarshalCopy(tmp); err != nil {
			return kernel.Ref{}, false
		}
		doors := tmp.TakeDoors()
		var out kernel.Ref
		found := false
		for j, d := range doors {
			ref, isRef := d.(kernel.Ref)
			if !isRef {
				continue
			}
			if j == i && !found {
				out = ref
				found = true
			} else {
				ref.Release()
			}
		}
		return out, found
	}
}

// labelRootDoorsLocked assigns "root:<name>/<i>" labels to the doors a
// published root marshalled into a reply, so RootRebinder can rebind
// them after a restart. Callers hold s.mu.
func (s *Server) labelRootDoorsLocked(name string, doors []buffer.Door) {
	for i, d := range doors {
		if ref, ok := d.(kernel.Ref); ok && ref.Valid() {
			if key, exported := s.byDoor[ref.DoorID()]; exported {
				s.labels[key] = fmt.Sprintf("root:%s/%d", name, i)
				s.markDirtyLocked()
			} else {
				s.pendingLabels[ref.DoorID()] = fmt.Sprintf("root:%s/%d", name, i)
			}
		}
	}
}
