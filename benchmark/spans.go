package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/trace"
)

// The traced run: every call is the root of its own trace (loadgen.call,
// from the benchmark's own files), the program's existing spans hang
// under it on both machines, and a layer's cost is its span's self time:
// its duration minus the part of that interval its child spans cover.

// A span is one recorded span, from either process.
type span struct {
	id, parent uint64
	name       string
	start, dur int64 // nanoseconds; both processes read the same host clock
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID. Children are clipped to their parent's interval and overlapping
// children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, edge := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, edge), min(c.start+c.dur, s.start+s.dur)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.dur - covered
	}
	return self
}

// traceJSON is the telemetry plane's wire form of one span subtree.
type traceJSON struct {
	Span     string      `json:"span"`
	Parent   string      `json:"parent"`
	Name     string      `json:"name"`
	Start    string      `json:"start"`
	Duration string      `json:"duration"`
	Children []traceJSON `json:"children"`
}

func (t traceJSON) flatten(out []span) ([]span, error) {
	id, err := strconv.ParseUint(t.Span, 16, 64)
	if err != nil {
		return nil, fmt.Errorf("span id %q: %w", t.Span, err)
	}
	var parent uint64
	if t.Parent != "" {
		if parent, err = strconv.ParseUint(t.Parent, 16, 64); err != nil {
			return nil, fmt.Errorf("parent id %q: %w", t.Parent, err)
		}
	}
	start, err := time.Parse(time.RFC3339Nano, t.Start)
	if err != nil {
		return nil, err
	}
	dur, err := time.ParseDuration(t.Duration)
	if err != nil {
		return nil, err
	}
	out = append(out, span{id: id, parent: parent, name: t.Name, start: start.UnixNano(), dur: int64(dur)})
	for _, c := range t.Children {
		if out, err = c.flatten(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serverSpans fetches the spans the server recorded for one trace.
func serverSpans(telemetry string, traceID uint64) ([]span, error) {
	body, err := httpGet(fmt.Sprintf("%s/traces/%016x", telemetry, traceID))
	if err != nil {
		return nil, err
	}
	var roots []traceJSON
	if err := json.Unmarshal(body, &roots); err != nil {
		return nil, err
	}
	var out []span
	for _, r := range roots {
		if out, err = r.flatten(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// A spanTally accumulates self time per span name over sampled traces.
type spanTally struct {
	selfNs map[string]int64
	count  map[string]int64
	traces int // complete traces tallied
}

func newSpanTally() *spanTally {
	return &spanTally{selfNs: make(map[string]int64), count: make(map[string]int64)}
}

// collect tallies the given finished traces: the load generator's spans
// come from its own ring, the server's over HTTP. Both rings keep only
// recent spans, so a trace with a hole (a netd.send with nothing under
// it, or no root) is dropped whole rather than tallied short.
func (t *spanTally) collect(telemetry string, ids []uint64) {
	for _, id := range ids {
		var spans []span
		remote, root := false, false
		for _, sd := range trace.Collect(id) {
			spans = append(spans, span{id: sd.SpanID, parent: sd.ParentID, name: sd.Name, start: sd.Start, dur: sd.Duration})
			remote = remote || sd.Name == "netd.send"
			root = root || sd.Name == "loadgen.call"
		}
		if remote {
			ss, err := serverSpans(telemetry, id)
			if err != nil {
				continue
			}
			spans = append(spans, ss...)
		}
		if !root || !sendsAnswered(spans) {
			continue
		}
		t.traces++
		byID := selfTimes(spans)
		for _, s := range spans {
			if s.dur == 0 {
				continue // an instantaneous event, not a layer
			}
			t.selfNs[s.name] += byID[s.id]
			t.count[s.name]++
		}
	}
}

// sendsAnswered reports whether every netd.send span has the server's
// netd.serve beneath it (the serve span opens after any dispatch wait has
// closed, so both are direct children of the send).
func sendsAnswered(spans []span) bool {
	served := make(map[uint64]bool)
	for _, s := range spans {
		if s.name == "netd.serve" {
			served[s.parent] = true
		}
	}
	for _, s := range spans {
		if s.name == "netd.send" && !served[s.id] {
			return false
		}
	}
	return true
}

// meanSelfUs is the mean self time, in microseconds, of spans named name.
func (t *spanTally) meanSelfUs(name string) float64 {
	return ratio(float64(t.selfNs[name]), float64(t.count[name])) / 1e3
}
