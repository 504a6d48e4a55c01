package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// writeJSON renders v as the response body byte for byte as encoding/json's
// Encoder with SetIndent("", "  ") and HTML escaping would, or a 500 if it
// cannot be: a NaN or infinite float has no JSON form. The encoder knows only
// the kinds the plane's responses use: structs (json tags, omitempty),
// slices, arrays, maps with string keys, strings, bools, integers and
// float64s. encoding/json and what it links were a quarter megabyte of every
// server's binary (EXPERIMENTS E37).
func writeJSON(w *response, v any) {
	b, err := appendJSON(w.AvailableBuffer(), reflect.ValueOf(v), 0)
	if err != nil {
		w.error(500, err.Error())
		return
	}
	w.ctype = "application/json"
	w.Write(append(b, '\n'))
}

// appendJSON appends v; its members go on lines of their own, depth+1 levels in.
func appendJSON(b []byte, v reflect.Value, depth int) (_ []byte, err error) {
	open, closer := "{", "}" // what comes before the next member, and after the last
	next := func(e reflect.Value, key ...string) {
		b, open = append(append(b, open...), '\n'), ","
		if b = append(b, strings.Repeat("  ", depth+1)...); key != nil {
			b = append(appendString(b, key[0]), ": "...)
		}
		b, err = appendJSON(b, e, depth+1)
	}
	switch k := v.Kind(); {
	case k == reflect.String:
		return appendString(b, v.String()), nil
	case k == reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case v.CanInt():
		return strconv.AppendInt(b, v.Int(), 10), nil
	case v.CanUint():
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case k == reflect.Float64:
		f, format := v.Float(), byte('f')
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("telemetry: %v has no JSON encoding", f)
		} else if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 64)
		if n := len(b); format == 'e' && b[n-3] == '-' && b[n-2] == '0' { // e-07 → e-7
			b[n-2], b = b[n-1], b[:n-1]
		}
		return b, nil
	case (k == reflect.Slice || k == reflect.Map) && v.IsNil():
		return append(b, "null"...), nil
	case k == reflect.Struct:
		for i := 0; i < v.NumField() && err == nil; i++ {
			f := v.Type().Field(i)
			name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			if f.IsExported() && name != "-" && (opt != "omitempty" || !isEmpty(v.Field(i))) {
				next(v.Field(i), cmp.Or(name, f.Name))
			}
		}
	case k == reflect.Map && v.Type().Key().Kind() == reflect.String:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
		for i := 0; i < len(keys) && err == nil; i++ {
			next(v.MapIndex(keys[i]), keys[i].String())
		}
	case k == reflect.Slice || k == reflect.Array:
		open, closer = "[", "]"
		for i := 0; i < v.Len() && err == nil; i++ {
			next(v.Index(i))
		}
	default:
		return b, fmt.Errorf("telemetry: %s has no JSON encoding", v.Type())
	}
	if open == "," { // there were members: the closer goes on a line of its own
		open = "\n" + strings.Repeat("  ", depth)
	}
	return append(append(b, open...), closer...), err
}

// isEmpty is encoding/json's omitempty test, except that -0.0 is not empty
// here (no response has an omitempty float).
func isEmpty(v reflect.Value) bool {
	if k := v.Kind(); k == reflect.Array || k == reflect.Map || k == reflect.Slice || k == reflect.String {
		return v.Len() == 0
	}
	return v.Kind() != reflect.Struct && v.IsZero()
}

// appendString appends s quoted as encoding/json quotes it: invalid UTF-8
// as U+FFFD, and <, >, &, U+2028 and U+2029 escaped besides what JSON needs.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch j := strings.IndexRune("\"\\\b\f\n\r\t", r); {
		case j >= 0:
			b = append(b, '\\', `"\bfnrt`[j])
		case r == utf8.RuneError && size == 1, r < ' ', r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029':
			b = fmt.Appendf(b, `\u%04x`, r)
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
