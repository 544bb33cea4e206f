package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// gcPercent is the GOGC the benchmark runs under. cmd/elsqbench measures at
// 200 (the simulator churns short-lived structures); the benchmark sets it
// explicitly rather than inheriting the environment's default of 100.
const gcPercent = 200

// fingerprint identifies the host and build a result was measured on, so
// that two results are only compared when they match.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	// PGO is the profile the binary was built with, or "off". The
	// default.pgo of cmd/elsqbench applies to that main package only.
	PGO string `json:"pgo"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gcPercent,
		PGO:        "off",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				fp.PGO = s.Value
			}
		}
	}
	return fp
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d GOGC=%d pgo=%s",
		f.GoVersion, f.GOOS, f.GOARCH, f.NumCPU, f.GOMAXPROCS, f.GOGC, f.PGO)
}

// peakRSSMiB returns the process's peak resident set size (VmHWM) in MiB.
// Where /proc is unavailable it falls back to the memory the Go runtime
// has obtained from the OS.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// goCounters is a snapshot of the Go runtime's allocation and GC CPU
// counters; the difference of two snapshots covers the work between them.
type goCounters struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := goCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[1].Value.Float64()
	}
	return g
}

func (g goCounters) add(o goCounters) goCounters {
	return goCounters{
		mallocs: g.mallocs + o.mallocs,
		bytes:   g.bytes + o.bytes,
		gcCPU:   g.gcCPU + o.gcCPU,
		allCPU:  g.allCPU + o.allCPU,
	}
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{
		mallocs: g.mallocs - o.mallocs,
		bytes:   g.bytes - o.bytes,
		gcCPU:   g.gcCPU - o.gcCPU,
		allCPU:  g.allCPU - o.allCPU,
	}
}
