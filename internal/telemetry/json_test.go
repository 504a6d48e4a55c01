package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/scstats"
)

// encodingJSON is what the plane served before it had its own encoder.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

func served(v any) *response {
	w := &response{status: 200}
	writeJSON(w, v)
	return w
}

// jsonStrings and jsonFloats are the awkward cases fill draws from.
var (
	jsonStrings = []string{"", "netd(serve)", "a<b>&c", "\u2028 and \u2029", "\x00\x01\x1f\x7f",
		"tab\tnl\nquote\"back\\slash", "\b\f\r", "\xff\xfe invalid \xc3", "héllo €", "\ufffd is U+FFFD", "10.0.0.1:7040"}
	jsonFloats = []float64{0, math.Copysign(0, -1), 0.1, 1e-7, 1e-6, 9.99999e-7, 1e21, 9.99999999999999e20,
		5e-324, 1.7976931348623157e308, -2.5e-8, 123.456, 1e20, 3, -1e300}
)

// fill sets v to a random value of its type: slices and maps nil, empty or
// a few members long (no deeper than depth 4), strings and floats from the
// tables above, integers at their edges or anywhere between.
func fill(r *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(jsonStrings[r.IntN(len(jsonStrings))])
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 0)
	case reflect.Int, reflect.Int64:
		v.SetInt([]int64{0, -1, 1, math.MaxInt64, math.MinInt64, r.Int64()}[r.IntN(6)])
	case reflect.Uint32, reflect.Uint64:
		v.SetUint([]uint64{0, 1, math.MaxUint32, math.MaxUint64, r.Uint64()}[r.IntN(5)])
	case reflect.Float64:
		f := jsonFloats[r.IntN(len(jsonFloats))]
		if r.IntN(3) == 0 {
			f = r.NormFloat64() * math.Pow(10, float64(r.IntN(60)-30))
		}
		v.SetFloat(f)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(r, v.Field(i), depth)
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			fill(r, v.Index(i), depth)
		}
	case reflect.Slice:
		if n := r.IntN(4); n > 0 {
			n = min(n-1, 4-depth)
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := range n {
				fill(r, v.Index(i), depth+1)
			}
		}
	case reflect.Map:
		if n := r.IntN(4); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for range n - 1 {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				fill(r, k, depth+1)
				fill(r, e, depth+1)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic(fmt.Sprintf("fill: no %s", v.Type()))
	}
}

// TestJSONMatchesEncodingJSON: every response type the plane serves renders
// byte for byte as encoding/json's indented Encoder renders it.
func TestJSONMatchesEncodingJSON(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cur := statzSample{at: t0.Add(10 * time.Second), Sample: scstats.Sample{
		Subcontracts: []scstats.Snapshot{{Name: "busy", Calls: 150, Errors: 3, Retries: 2, Lat: synthLat(1000, 2000, 150)}},
		Peers:        []scstats.PeerSnapshot{{Addr: "10.0.0.1:700", Calls: 80, Lat: synthLat(1000, math.MaxInt64, 80)}},
		Hists:        []scstats.NamedHistSnapshot{{Name: "dispatch.queue_delay", Hist: synthLat(100, 200, 25)}},
	}, bufs: buffer.Ledger{Gets: 450, Puts: 449, LargeAllocs: 2}, inflight: 1}
	full := statzDelta(cur, statzSample{at: t0}, 10, true)
	full.Gauges = map[string]int64{"netd.conns_live": 2, "buffer.large_idle": 0, "a<b": -1}
	empty := statzDelta(statzSample{at: t0}, statzSample{at: t0}, 0, false)
	empty.Subcontracts, empty.Gauges = []statzSC{}, map[string]int64{}
	values := []any{full, empty, statzResponse{}, health{Status: "ok"},
		health{Status: "degraded", Degraded: []string{"1 circuit breaker(s) open: some peers unreachable"}, BreakersOpen: 1},
		[]traceJSON{}, []traceJSON{{Trace: "00000000000000ab", Name: "root", Children: []traceJSON{{Name: "child", Err: "x<y"}}}},
		buffer.Stats(), [3]int64{1, -1, 0}}
	r := rand.New(rand.NewPCG(29, 37))
	for range 200 {
		for _, p := range []any{&statzResponse{}, &health{}, &[]traceJSON{}, &buffer.Ledger{}} {
			fill(r, reflect.ValueOf(p).Elem(), 0)
			values = append(values, reflect.ValueOf(p).Elem().Interface())
		}
	}
	for i, v := range values {
		want := encodingJSON(t, v)
		w := served(v)
		if w.status != 200 || w.ctype != "application/json" || !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("value %d (%T): served %d %s\n%s\nencoding/json:\n%s", i, v, w.status, w.ctype, w.Bytes(), want)
		}
	}
}

// TestJSONFloats: encoding/json's number format — 'f', or 'e' with no
// leading zero in the exponent outside [1e-6, 1e21).
func TestJSONFloats(t *testing.T) {
	for _, f := range append(jsonFloats, 1e-300, 4.5e-10, 7e22, -0.000001) {
		got, err := appendJSON(nil, reflect.ValueOf(f), 0)
		want, _ := json.Marshal(f)
		if err != nil || string(got) != string(want) {
			t.Errorf("%g: %s, %v; encoding/json %s", f, got, err, want)
		}
	}
}

// FuzzJSONString: strings escape as encoding/json escapes them, HTML-safe.
func FuzzJSONString(f *testing.F) {
	for _, s := range append(jsonStrings, "\x00\x1f", "<script>&amp;</script>", "\xed\xa0\x80", "\xf4\x90\x80\x80", "a\u2029") {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: %s, encoding/json %s", s, got, want)
		}
	})
}

// TestWriteJSONRefusesUnencodable: a value with no JSON form — a NaN or
// infinite float, however deep, or a kind the encoder does not know —
// answers 500 with a one-line text error, not 200 with an empty or torn
// body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	for _, v := range []any{
		statzResponse{WindowSeconds: math.NaN()},
		statzResponse{Subcontracts: []statzSC{{Name: "busy", CallsPerSec: math.Inf(1)}}},
		[]statzPeer{{Addr: "a"}, {ErrorsPerSec: math.Inf(-1)}},
		map[int]int64{1: 1},
		make(chan int),
	} {
		w := served(v)
		body := w.String()
		if w.status != 500 || !strings.HasPrefix(w.ctype, "text/plain") || strings.Count(body, "\n") != 1 || !strings.HasPrefix(body, "telemetry: ") {
			t.Errorf("%T: served %d %q %q, want a 500 with a one-line text error", v, w.status, w.ctype, body)
		}
	}
}
