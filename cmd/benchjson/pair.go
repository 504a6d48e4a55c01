package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Pair mode (make bench-pair): the two-process benchmark on a base commit
// and on the working tree, -n times each on the same seed, alternating
// which side goes first, because this host drifts by more than most changes
// move. Each side is driven through its own benchmark/run.sh, which builds
// what it runs; nothing under benchmark/ is touched.
var (
	pair     = flag.Bool("pair", false, "pair mode: benchmark/run.sh on -base and on the working tree, alternating")
	base     = flag.String("base", "HEAD", "pair mode: the commit to compare the working tree against")
	workload = flag.String("workload", "null_c1", "pair mode: the workload to run")
	pairs    = flag.Int("n", 10, "pair mode: pairs of runs")
	seed     = flag.Int("seed", 101, "pair mode: seed of the first pair; pair i runs both sides on seed+i")
	traced   = flag.Int("trace", 0, "pair mode: run.sh's --trace (1 adds the per-layer metrics)")
	metricRE = flag.String("metrics", "", "pair mode: report only metrics matching this regexp (default: the end-to-end ones)")
)

// runLine is the line run.sh ends with for one workload.
type runLine struct {
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one checkout and its runs' results.
type side struct {
	dir    string
	failed int64
	vals   map[string][]float64
}

func (s *side) run(seed int) error {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", *workload, "--seconds", "16",
		"--trace", strconv.Itoa(*traced), "--seed", strconv.Itoa(seed))
	cmd.Dir, cmd.Stderr = s.dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w", s.dir, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runLine
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return fmt.Errorf("%s: last line of run.sh: %w", s.dir, err)
	}
	s.failed += r.Failed
	for name, m := range r.Metrics {
		s.vals[name] = append(s.vals[name], m.Value)
	}
	return nil
}

// quantile interpolates linearly in sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[min(lo+1, len(sorted)-1)]-sorted[lo])
}

// quartiles sorts v and formats q1 / median / q3.
func quartiles(v []float64) string {
	sort.Float64s(v)
	return fmt.Sprintf("%.4g / %.4g / %.4g", quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75))
}

func runPairs() error {
	// Which way is better, and which metrics are the end-to-end ones.
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		return err
	}
	higher := map[string]bool{}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, regexp.QuoteMeta(m.Name))
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		higher[m.Name] = m.Better == "higher"
	}
	if *metricRE == "" {
		*metricRE = "^(" + strings.Join(e2e, "|") + ")$"
	}
	want, err := regexp.Compile(*metricRE)
	if err != nil {
		return err
	}

	tmp, err := os.MkdirTemp("", "bench-pair-") // the base commit's files, no git metadata
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if out, err := exec.Command("sh", "-c", "git archive "+*base+" | tar -x -C "+tmp).CombinedOutput(); err != nil {
		return fmt.Errorf("checking out %s: %v: %s", *base, err, out)
	}
	sides := [2]*side{{dir: tmp, vals: map[string][]float64{}}, {dir: ".", vals: map[string][]float64{}}}
	for i := 0; i < *pairs; i++ {
		for k := 0; k < 2; k++ {
			if err := sides[(i+k)%2].run(*seed + i); err != nil { // even pairs: base first
				return err
			}
		}
	}

	var names []string
	for name := range sides[1].vals {
		if want.MatchString(name) && len(sides[0].vals[name]) == *pairs && len(sides[1].vals[name]) == *pairs {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("%s: %d pairs, base %s vs working tree, seeds %d..%d; failed calls: base %d, change %d\n",
		*workload, *pairs, *base, *seed, *seed+*pairs-1, sides[0].failed, sides[1].failed)
	fmt.Printf("%-36s %-30s %-30s %-6s %s\n", "metric", "base q1 / median / q3", "change q1 / median / q3", "wins", "median of (change - base)")
	for _, name := range names {
		b, c := sides[0].vals[name], sides[1].vals[name]
		wins, diffs := 0, make([]float64, len(b))
		for i := range b {
			diffs[i] = c[i] - b[i]
			if d := diffs[i]; d != 0 && (d > 0) == higher[name] {
				wins++
			}
		}
		fmt.Printf("  %s, in run order: base %.4g change %.4g\n", name, b, c)
		fmt.Printf("%-36s %-30s %-30s %2d/%-3d %+.4g\n", name, quartiles(b), quartiles(c), wins, len(b), median(diffs))
	}
	return nil
}
