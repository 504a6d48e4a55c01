package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// runSeconds is the timed window BENCHMARK.json asks the driver for.
const runSeconds = 16

// defaultBounds are the regression bounds each end-to-end metric starts
// from: the share of the parent's median by which it may worsen. A/A mode
// widens one to three times the run-to-run spread it measures (so the
// spread stays inside a third of the bound); a metric that would need
// more than maxBound is demoted instead (see aaBounds).
func defaultBounds() map[string]float64 {
	return map[string]float64{
		"setup_s":         0.25,
		"calls_per_s":     0.05,
		"p50_us":          0.08,
		"p99_us":          0.15,
		"cpu_us_per_call": 0.05,
		"x_floor":         0.08,
		"server_rss_mb":   0.10,
	}
}

const maxBound = 0.25

// The manifest is BENCHMARK.json, generated from the benchmark's own
// tables so the file and the program cannot drift apart.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest(bounds map[string]float64) manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		b := bounds[d.name]
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	return m
}

func writeManifest(w io.Writer, bounds map[string]float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest(bounds))
}

// fingerprint describes the host and the run, so a number is never read
// without knowing what produced it.
func fingerprint(dir string, seed uint64, seconds int) string {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(data))
	}
	cpu := "unknown"
	for _, line := range strings.Split(read("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			cpu = strings.TrimSpace(v)
			break
		}
	}
	load := strings.Fields(read("/proc/loadavg"))
	if len(load) == 0 {
		load = []string{"unknown"}
	}
	// The server is forked with the benchmark's own environment and no
	// GOMAXPROCS override, so its GOMAXPROCS is the same default.
	gomaxprocs := runtime.GOMAXPROCS(0)
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fp := map[string]any{
		"nproc":             runtime.NumCPU(),
		"gomaxprocs_client": gomaxprocs,
		"gomaxprocs_server": gomaxprocs,
		"go":                runtime.Version(),
		"kernel":            read("/proc/sys/kernel/osrelease"),
		"cpu":               cpu,
		"scratch_fs":        fsType(dir),
		"loadavg_1m":        load[0],
		"git_commit":        commit,
		"seed":              seed,
		"window_seconds":    seconds,
		"small_open_rate":   smallOpenRate,
	}
	out, _ := json.Marshal(fp) // a map of strings and numbers cannot fail to marshal
	return string(out)
}

// fsType names the filesystem dir lives on (where the WAL fsyncs land).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
