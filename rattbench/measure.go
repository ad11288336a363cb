package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted samples (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// merged concatenates and sorts per-goroutine sample slices.
func merged(parts ...[]uint32) []uint32 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]uint32, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// clampNS stores a duration sample in the 32-bit sample slices
// (4.29 s is far past every exchange timeout).
func clampNS(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime counters the per-layer metrics
// difference across the timed phase.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64 // seconds
	gcs        uint64
	processCPU time.Duration
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: uint64(value(0)),
		gcCPU:      value(1),
		gcs:        uint64(value(2)),
		processCPU: cpuTime(),
	}
}

// settledHeap returns live heap bytes after full collections. The
// second cycle empties sync.Pool victim caches (the transport's
// receive buffers), which would otherwise count as state.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// provenance identifies the host, toolchain and source a result came
// from.
type provenance struct {
	CPU          string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Platform     string  `json:"platform"`
	SourceSHA256 string  `json:"source_sha256"`
	Start        string  `json:"start_utc"`
	Params       *params `json:"params"`
}

func newProvenance(root string, p *params) provenance {
	return provenance{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Platform:     runtime.GOOS + "/" + runtime.GOARCH,
		SourceSHA256: sourceDigest(root),
		Start:        time.Now().UTC().Format(time.RFC3339),
		Params:       p,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root in
// path order: the identity of the code measured, with or without a
// version-control checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
