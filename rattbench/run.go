package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// outcome is what one driver run measured: the timed phase's
// counters and samples, plus the correctness verdicts of the whole
// run (warm-up, timed phase, drain and replays).
type outcome struct {
	dur      time.Duration
	accepted uint64    // server-accepted reports during the timed phase
	win      []winStat // completed measurement windows
	lat      winLat    // per-exchange verdict latency by window, ns, sorted

	rt0, rt1       runtimeSample
	batch0, batch1 verifier.BatchStats
	net0, net1     netSnap
	ticks          []tickSample
	ckpt0, ckpt1   rattd.CheckpointerStats

	bytesPerProver float64
	// attempted counts honest reports sent; failed those that were
	// rejected or whose exchange timed out.
	attempted, failed int64
	checks            []string
	// sample holds distinct reports the workload sent, replayed
	// through single layers after a traced run.
	sample []core.Report
}

// allLat returns every latency sample of the timed phase, sorted.
func (o *outcome) allLat() []uint32 {
	parts := make([][]uint32, 0, windows)
	for _, l := range o.lat {
		parts = append(parts, l)
	}
	return merged(parts...)
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// winStat is one measurement window's throughput and CPU.
type winStat struct {
	dur      time.Duration
	accepted uint64
	cpu      time.Duration
}

// netSnap sums the datagram counters of the client and server sides.
type netSnap struct {
	client, server transport.NetStats
}

// tickSample is one checkpoint tick of the timed phase.
type tickSample struct {
	dur   time.Duration
	bytes int64
	dirty int64
}

// driver is one workload's load generator around a live server.
type driver interface {
	// run drives the workload through warm-up, the timed phase,
	// drain and the replay sample, filling o.
	run(o *outcome) error
	close()
}

func newDriver(p *params, f *fleet, tr *tracer, epoch time.Time, tmp string) (driver, error) {
	if p.Workers > 0 {
		return newInproc(p, f, tr, epoch, tmp)
	}
	return newUDP(p, f, tr, epoch)
}

// spanCapacity bounds a traced run's span buffer (24 B a span).
const spanCapacity = 1 << 20

// measureRun sets the workload up SetupReps times (keeping the last)
// and runs it once, traced when trace is set. It returns the set-up
// durations in seconds and the tracer (nil untraced).
func measureRun(p *params, trace bool, tmp string) (*outcome, []float64, *tracer, error) {
	var setups []float64
	var d driver
	var tr *tracer
	for r := 0; r < p.SetupReps; r++ {
		if d != nil {
			d.close()
		}
		t := time.Now()
		f, err := newFleet(p)
		if err != nil {
			return nil, nil, nil, err
		}
		if trace {
			tr = newTracer(f, p.TraceEvery, spanCapacity, t)
		}
		if d, err = newDriver(p, f, tr, t, tmp); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.close()
	o := &outcome{}
	if err := d.run(o); err != nil {
		return nil, nil, nil, err
	}
	return o, setups, tr, nil
}

// timedPhase runs the warm-up until warmed reports true (and at least
// p.Warmup has passed), then the timed phase of p.Seconds in windows,
// ended early when halt closes. Server, runtime and edge snapshots
// bracket the phase; drivers record samples into window(phase).
func timedPhase(p *params, o *outcome, srv *rattd.Server, tr *tracer, phase *atomic.Int32,
	warmed func() bool, halt <-chan struct{}, edge func(begin bool)) error {
	start := time.Now()
	const warmupCap = 60 * time.Second
	for time.Since(start) < p.Warmup || !warmed() {
		if time.Since(start) > warmupCap {
			phase.Store(phaseStop)
			return errors.New("warm-up did not complete: the fleet made no full round")
		}
		select {
		case <-halt:
			phase.Store(phaseStop)
			return errors.New("input pool exhausted during warm-up")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Start every timed phase right after a collection, so the GC
	// cycles inside it fall at the same points of the run every time.
	runtime.GC()
	c0 := srv.Counts()
	o.batch0 = srv.BatchStats()
	edge(true)
	o.rt0 = readRuntime()
	if tr != nil {
		tr.active.Store(true)
	}
	winLen := time.Duration(p.Seconds * float64(time.Second) / windows)
	t0 := time.Now()
	prevT, prevAcc, prevCPU := t0, c0.Accepted, o.rt0.processCPU
	phase.Store(1)
	for w := 1; w <= windows; w++ {
		halted := false
		select {
		case <-time.After(time.Until(t0.Add(time.Duration(w) * winLen))):
		case <-halt:
			halted = true
		}
		now, acc, cpu := time.Now(), srv.Counts().Accepted, cpuTime()
		if halted {
			break
		}
		if w < windows {
			phase.Store(int32(w + 1))
		}
		o.win = append(o.win, winStat{dur: now.Sub(prevT), accepted: acc - prevAcc, cpu: cpu - prevCPU})
		prevT, prevAcc, prevCPU = now, acc, cpu
	}
	o.dur = time.Since(t0)
	if tr != nil {
		tr.active.Store(false)
	}
	o.rt1 = readRuntime()
	c1 := srv.Counts()
	o.batch1 = srv.BatchStats()
	edge(false)
	phase.Store(phaseStop)
	o.accepted = c1.Accepted - c0.Accepted
	if len(o.win) == 0 {
		return errors.New("input pool exhausted before the first measurement window ended")
	}
	return nil
}

// serverChecks asserts the server's own accounting against what the
// driver sent: every report is accepted or rejected exactly once,
// every rejection is a deliberate replay, and every replay is
// rejected as one. lost is the number of honest reports whose
// exchange timed out: the server may or may not have seen them.
func serverChecks(o *outcome, c rattd.Counts, honest, okReports, replays, lost int64) {
	sent := uint64(honest + replays)
	o.check(c.Accepted+c.Rejected <= sent && c.Accepted+c.Rejected+uint64(lost) >= sent,
		"server accepted %d + rejected %d != reports sent %d (%d lost to timeouts)", c.Accepted, c.Rejected, sent, lost)
	o.check(c.Accepted >= uint64(okReports) && c.Accepted <= uint64(okReports+lost),
		"server accepted %d reports, driver saw %d accepted honest reports (%d lost)", c.Accepted, okReports, lost)
	o.check(c.Rejected == uint64(replays), "server rejected %d reports, want exactly the %d replayed ones", c.Rejected, replays)
	o.check(c.Replays == uint64(replays), "server counted %d replays, want %d", c.Replays, replays)
}

// heapPerProver returns the live heap grown since base, per prover of
// the fleet (every prover has made contact by the end of warm-up).
func heapPerProver(base uint64, provers int) float64 {
	return (float64(settledHeap()) - float64(base)) / float64(provers)
}

// sampleReports picks up to n distinct pool reports spread over the
// counters the workload used.
func sampleReports(f *fleet, maxCounter uint64, n int) []core.Report {
	used := min(int(maxCounter), len(f.pool))
	var out []core.Report
	for k := 0; k < n && k < used; k++ {
		out = append(out, f.pool[k*used/min(n, used)])
	}
	return out
}
