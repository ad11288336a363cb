package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
)

// params is one run's complete configuration. Every field is recorded
// with the result, so a number can be traced back to the load that
// produced it.
type params struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`

	Provers   int    `json:"provers"`
	History   int    `json:"reports_per_collection"`
	MemSize   int    `json:"image_bytes"`
	BlockSize int    `json:"block_bytes"`
	ImageSeed uint64 `json:"image_seed"`

	// UDP workloads: a closed loop of Window exchanges in flight over
	// Sockets client sockets; SMART rounds when Smart is set,
	// collections otherwise.
	Sockets int  `json:"client_sockets,omitempty"`
	Window  int  `json:"window_exchanges,omitempty"`
	Smart   bool `json:"smart_rounds,omitempty"`

	// In-process workloads.
	Workers   int           `json:"ingest_goroutines,omitempty"`
	Miss      bool          `json:"desynchronized_counters,omitempty"`
	CkptEvery time.Duration `json:"checkpoint_every_ns,omitempty"`

	ReplayEvery int           `json:"replay_every_provers"`
	MaxRounds   int           `json:"max_rounds_per_prover"`
	SetupReps   int           `json:"setup_reps"`
	Warmup      time.Duration `json:"min_warmup_ns"`
	Timeout     time.Duration `json:"exchange_timeout_ns"`
	TraceEvery  int           `json:"trace_one_prover_in"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
}

var workloadNames = []string{"udp-flood", "udp-smart", "inproc-hit", "inproc-miss"}

// newParams returns the configuration of a named workload. smoke
// shrinks the fleet and the run so every correctness check is
// exercised within seconds.
func newParams(workload string, seed uint64, seconds float64, trace, smoke bool) (*params, error) {
	nproc := runtime.NumCPU()
	p := &params{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		History: 4, MemSize: 4 << 10, BlockSize: 256, ImageSeed: 7,
		ReplayEvery: 1000, MaxRounds: 256, SetupReps: 5,
		Warmup: time.Second, Timeout: 2 * time.Second, TraceEvery: 8,
		GOMAXPROCS: min(runtime.GOMAXPROCS(0), nproc),
	}
	switch workload {
	case "udp-flood":
		p.Provers, p.Window, p.Sockets = 16384, 64, min(2, nproc)
	case "udp-smart":
		p.Provers, p.Window, p.Sockets, p.Smart = 16384, 64, min(2, nproc), true
	case "inproc-hit":
		p.Provers, p.Workers, p.CkptEvery, p.TraceEvery = 65536, p.GOMAXPROCS, 250*time.Millisecond, 32
	case "inproc-miss":
		p.Provers, p.Workers, p.Miss, p.TraceEvery = 65536, p.GOMAXPROCS, true, 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if smoke {
		p.Provers /= 8
		p.SetupReps = 1
		p.Warmup = 100 * time.Millisecond
		p.CkptEvery /= 5
	}
	return p, nil
}

// mix64 is the splitmix64 finalizer: a bijection, so distinct inputs
// give distinct outputs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fleet is a workload's generated input: prover names, the golden
// image, and a pool of precomputed ERASMUS self-measurements. The
// fleet shares one attestation key, so every prover's report for
// counter c is the same bytes; pool[c-1] is that report, and a
// collection of History reports starting at counter c is the
// zero-copy slice pool[c-1 : c-1+History].
type fleet struct {
	names []string
	image []byte
	pool  []core.Report
	poolp []*core.Report
	// first is each prover's first collection counter: 1 everywhere
	// for fleet-synchronised counters, a seeded offset into the pool
	// for desynchronised ones.
	first []uint64
}

// newFleet generates the inputs of p from its seed.
func newFleet(p *params) (*fleet, error) {
	f := &fleet{
		names: make([]string, p.Provers),
		image: rattd.GoldenImage(p.ImageSeed, p.MemSize, p.BlockSize),
		first: make([]uint64, p.Provers),
	}
	base := mix64(p.Seed ^ 0x6a09e667f3bcc908)
	for i := range f.names {
		f.names[i] = fmt.Sprintf("p%016x", mix64(base+uint64(i)))
	}
	counters := p.History * p.MaxRounds
	rng := rand.New(rand.NewPCG(p.Seed, 0xc0ffee))
	for i := range f.first {
		f.first[i] = 1
		if p.Miss {
			f.first[i] = 1 + rng.Uint64N(uint64(p.Provers))
		}
	}
	if p.Miss {
		counters += p.Provers
	}
	pool, err := selfMeasurements(f.image, p.BlockSize, counters)
	if err != nil {
		return nil, err
	}
	f.pool = pool
	f.poolp = make([]*core.Report, len(pool))
	for i := range pool {
		f.poolp[i] = &f.pool[i]
	}
	return f, nil
}

// selfMeasurements computes the reports for counters 1..n across all
// cores.
func selfMeasurements(image []byte, blockSize, n int) ([]core.Report, error) {
	out := make([]core.Report, n)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prv, err := rattd.NewProver("template", rattd.DefaultKey, image, blockSize)
			if err != nil {
				errs[w] = err
				return
			}
			for c := w; c < n; c += workers {
				r, err := prv.SelfMeasure(uint64(c + 1))
				if err != nil {
					errs[w] = err
					return
				}
				out[c] = *r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("precompute reports: %w", err)
		}
	}
	return out, nil
}

// replaySample picks the provers that resubmit their last accepted
// collection after the run: one per ReplayEvery provers of the fleet,
// drawn by seed from those that have a collection to replay.
func replaySample(p *params, eligible []int) []int {
	want := (p.Provers + p.ReplayEvery - 1) / p.ReplayEvery
	rng := rand.New(rand.NewPCG(p.Seed, 0x7e91a7))
	rng.Shuffle(len(eligible), func(a, b int) { eligible[a], eligible[b] = eligible[b], eligible[a] })
	return eligible[:min(want, len(eligible))]
}

// Exchange kinds.
const (
	kindCollect = 1 + iota
	kindSMART
	kindReplay
)

// prover is one prover's exchange state. Fields cross goroutines (a
// generator launches, a transport worker completes), so all of them
// are atomics; busy is the ownership token.
type prover struct {
	// busy is 0 when idle, 1 while an exchange is in flight, and 2
	// once an exchange timed out: the prover is then retired, so a
	// late verdict can never be mistaken for a later exchange's.
	busy  atomic.Int32
	kind  atomic.Int32
	start atomic.Int64  // exchange start, ns since the run's epoch
	cur   atomic.Uint64 // first counter of the collection in flight
	next  atomic.Uint64 // next collection counter
	last  atomic.Uint64 // first counter of the last accepted collection
	seq   atomic.Uint32 // exchanges launched
}

// The timed phase is cut into windows of equal length; end-to-end
// metrics are medians over the windows, so a stall that hits one
// window (a collection cycle, a burst of host noise) moves the median
// little. A run's phase counter reads phaseWarmup, then 1..windows
// while measuring (window ph-1), then phaseStop.
const (
	windows     = 10
	phaseWarmup = 0
	phaseStop   = windows + 1
)

// window returns the measurement window of phase ph, or -1 outside
// the timed phase.
func window(ph int32) int {
	if ph >= 1 && ph <= windows {
		return int(ph) - 1
	}
	return -1
}

// winLat holds latency samples (ns) per measurement window.
type winLat [windows][]uint32

func (l *winLat) add(w int, ns int64) {
	if w >= 0 {
		l[w] = append(l[w], clampNS(ns))
	}
}

// bytes is the memory the samples hold, which is not server state.
func (l *winLat) bytes() uint64 {
	var n int
	for _, s := range l {
		n += cap(s)
	}
	return uint64(n) * 4
}

// mergeWin merges per-goroutine samples window by window, sorted.
func mergeWin(parts ...*winLat) winLat {
	var out winLat
	for w := range out {
		var ws [][]uint32
		for _, p := range parts {
			ws = append(ws, p[w])
		}
		out[w] = merged(ws...)
	}
	return out
}
