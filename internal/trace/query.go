package trace

import "sort"

// SpanData is one completed span as read back from the ring.
type SpanData struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for a root span
	Name     string
	Err      string // "" on success; truncated to errBytes
	Start    int64  // UnixNano
	Duration int64  `json:"DurationNs"` // nanoseconds; 0 for events
}

// scanIn visits every readable slot in a recorder (nil recorder = empty).
func scanIn(r *recorder, visit func(SpanData)) {
	if r == nil {
		return
	}
	for si := range r.slots {
		for i := range r.slots[si] {
			if sd, ok := r.slots[si][i].read(); ok {
				visit(sd)
			}
		}
	}
}

// scan visits every readable slot in the main ring.
func scan(visit func(SpanData)) {
	scanIn(recPtr.Load(), visit)
}

// collectIn returns every span of one trace in a recorder, start-ordered
// (ties broken by span ID for determinism).
func collectIn(r *recorder, traceID uint64) []SpanData {
	var out []SpanData
	scanIn(r, func(sd SpanData) {
		if sd.TraceID == traceID {
			out = append(out, sd)
		}
	})
	sortSpans(out)
	return out
}

// Collect returns every recorded span of one trace, ordered by start time
// (ties broken by span ID for determinism).
func Collect(traceID uint64) []SpanData {
	return collectIn(recPtr.Load(), traceID)
}

// rootsIn returns the most recent root spans of a recorder, newest first,
// at most one per trace, capped at max (≤0 means no cap).
func rootsIn(r *recorder, max int) []SpanData {
	latest := make(map[uint64]SpanData)
	scanIn(r, func(sd SpanData) {
		if sd.ParentID != 0 {
			return
		}
		if prev, ok := latest[sd.TraceID]; !ok || sd.Start > prev.Start {
			latest[sd.TraceID] = sd
		}
	})
	out := make([]SpanData, 0, len(latest))
	for _, sd := range latest {
		out = append(out, sd)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start > out[j].Start
		}
		return out[i].SpanID > out[j].SpanID
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Roots returns the most recent root spans (ParentID == 0), newest first,
// at most one per trace, capped at max (≤0 means no cap). This is the
// telemetry plane's /traces listing: "what end-to-end calls happened
// lately".
func Roots(max int) []SpanData {
	return rootsIn(recPtr.Load(), max)
}

// Node is one span in a trace tree, children ordered by start time.
type Node struct {
	SpanData
	Children []*Node `json:",omitempty"`
}

// treeOf assembles start-ordered spans into parent→child trees. Spans
// whose parent is absent (not yet ended, or already overwritten) surface
// as additional roots rather than vanishing, so a partially recorded
// trace still renders.
func treeOf(spans []SpanData) []*Node {
	if len(spans) == 0 {
		return nil
	}
	byID := make(map[uint64]*Node, len(spans))
	for i := range spans {
		byID[spans[i].SpanID] = &Node{SpanData: spans[i]}
	}
	var roots []*Node
	for _, sd := range spans { // spans is start-ordered, so children append in order
		n := byID[sd.SpanID]
		if p, ok := byID[sd.ParentID]; ok && sd.ParentID != 0 && sd.ParentID != sd.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Tree assembles one trace's spans into parent→child trees.
func Tree(traceID uint64) []*Node {
	return treeOf(Collect(traceID))
}

// sortSpans orders spans by start (ties by span ID).
func sortSpans(out []SpanData) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].SpanID < out[j].SpanID
	})
}
