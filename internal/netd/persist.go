package netd

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
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
	Key   uint64
	Count int
}

// persistedSession is one peer's lease as written to the state file.
type persistedSession struct {
	Instance uint64
	Epoch    uint64
	Addr     string
	Refs     []persistedRef
}

// persistedExport is one labeled export table entry.
type persistedExport struct {
	Key   uint64
	Label string
}

// persistedState is what the state file holds, in the lines encode writes
// (DESIGN §7); labels and addresses are quoted as strconv.Quote quotes them.
type persistedState struct {
	Instance uint64
	NextKey  uint64
	Exports  []persistedExport
	Sessions []persistedSession
}

const stateHeader = "netd-state 1"

// encode renders ps as the state file's lines.
func (ps *persistedState) encode() []byte {
	b := fmt.Appendf(nil, "%s\ninstance %d\nnext_key %d\n", stateHeader, ps.Instance, ps.NextKey)
	for _, e := range ps.Exports {
		b = fmt.Appendf(b, "export %d %q\n", e.Key, e.Label)
	}
	for _, p := range ps.Sessions {
		b = fmt.Appendf(b, "session %d %d %q", p.Instance, p.Epoch, p.Addr)
		for _, r := range p.Refs {
			b = fmt.Appendf(b, " %d:%d", r.Key, r.Count)
		}
		b = append(b, '\n')
	}
	return b
}

// parseState reads what encode wrote. Every line must parse and end in a
// newline, so a file cut short is refused rather than read as less state.
func parseState(data []byte) (*persistedState, error) {
	body, whole := strings.CutSuffix(string(data), "\n")
	lines := strings.Split(body, "\n")
	if lines[0] != stateHeader {
		return nil, errors.New("no " + stateHeader + " header line; a JSON state file an older springfsd wrote must be removed")
	} else if !whole {
		return nil, errors.New("the last line is cut short")
	}
	ps := &persistedState{}
	for i, line := range lines[1:] {
		var err error
		field := func() (f string) {
			f, line, _ = strings.Cut(line, " ")
			return f
		}
		num := func(s string) uint64 {
			n, e := strconv.ParseUint(s, 10, 64)
			err = cmp.Or(err, e)
			return n
		}
		quoted := func() string {
			q, e := strconv.QuotedPrefix(line)
			s, _ := strconv.Unquote(q)
			line, err = strings.TrimPrefix(line[len(q):], " "), cmp.Or(err, e)
			return s
		}
		switch field() {
		case "instance":
			ps.Instance = num(field())
		case "next_key":
			ps.NextKey = num(field())
		case "export":
			ps.Exports = append(ps.Exports, persistedExport{Key: num(field()), Label: quoted()})
		case "session":
			p := persistedSession{Instance: num(field()), Epoch: num(field()), Addr: quoted()}
			for line != "" && err == nil {
				key, count, _ := strings.Cut(field(), ":")
				n, e := strconv.Atoi(count)
				p.Refs = append(p.Refs, persistedRef{Key: num(key), Count: n})
				err = cmp.Or(err, e)
			}
			ps.Sessions = append(ps.Sessions, p)
		default:
			err = strconv.ErrSyntax
		}
		if err != nil || line != "" {
			return nil, fmt.Errorf("line %d is not a state-file line: %q", i+2, lines[i+1])
		}
	}
	return ps, nil
}

// flushState writes the state file if the tables changed since the last
// write. Called by Start and Close; the sweeper's tick does the same.
func (s *Server) flushState() {
	s.mu.Lock()
	s.proto.flush()
	s.settle()
}

// writeStateFile writes ps to path crash-safely: temp file in the same
// directory, fsync, rename over the target, directory fsync. A crash at any
// point leaves either the old file or the new one, never a torn mix.
func writeStateFile(path string, ps *persistedState) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".netd-state-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(ps.encode())
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadState restores the persisted tables into a freshly constructed
// server. Called from Start before any goroutine runs. A missing state file
// is a first boot; a corrupt one is an error — silently minting a fresh
// identity would strand every peer's references until their leases lapse,
// which is exactly what the state file exists to avoid.
func (s *Server) loadState() error {
	data, err := os.ReadFile(s.cfg.StateFile)
	if os.IsNotExist(err) {
		return nil // a first boot: the fresh identity is persisted at once
	}
	if err != nil {
		return fmt.Errorf("netd: read state file: %w", err)
	}
	ps, err := parseState(data)
	if err == nil {
		err = ps.check()
	}
	if err != nil {
		return fmt.Errorf("netd: corrupt state file %s: %w", s.cfg.StateFile, err)
	}
	var rebound []reboundExport
	for _, pe := range ps.Exports {
		if s.cfg.Rebinder == nil {
			break
		}
		ref, ok := s.cfg.Rebinder(pe.Label)
		if !ok {
			continue // the labeled object no longer exists; stale keys fail cleanly
		}
		rebound = append(rebound, reboundExport{key: pe.Key, label: pe.Label, door: ref.DoorID(),
			inline: ref.InlineHint(), h: s.dom.AdoptRef(ref)})
	}
	s.mu.Lock()
	s.proto.restore(ps, rebound, time.Now())
	s.settle()
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
	s.proto.label(ref.DoorID(), label)
	s.settle()
}

// RootRebinder builds a Rebinder resolving the "root:<name>/<i>" labels
// the server assigns automatically to doors marshalled through published
// bootstrap roots: it re-marshals the named root and picks out door i.
// Compose it with service-specific label families:
//
//	rebind := netd.RootRebinder(roots)
//	netd.With(netd.Config{Rebinder: func(label string) (kernel.Ref, bool) {
//	        if ref, ok := rebind(label); ok { return ref, true }
//	        return myServiceRebind(label)
//	}})
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
