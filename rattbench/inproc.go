package main

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// inprocDriver runs Workers goroutines that each own a contiguous
// slice of the fleet and call Server.IngestImage directly, one
// collection per call. Verdicts come back synchronously through
// transport.Local to a per-prover handler, before the call returns.
// inproc-hit also runs the checkpointer beside ingest.
type inprocDriver struct {
	p     *params
	f     *fleet
	tr    *tracer
	epoch time.Time

	local   *transport.Local
	srv     *rattd.Server
	verdict []int8 // 1 accepted, 2 rejected; written on the ingesting goroutine
	pv      []prover
	workers []*inprocWorker

	ckpt    *rattd.Checkpointer
	ckptDir string

	phase    atomic.Int32
	halt     chan struct{}
	haltOnce sync.Once
}

type inprocWorker struct {
	lo, hi int
	rounds atomic.Int64 // full passes over the worker's provers

	// Owned by the worker goroutine until it exits.
	lat                       winLat
	sent, okReports, rejected int64
	missing                   int64 // calls that returned without a verdict
}

func newInproc(p *params, f *fleet, tr *tracer, epoch time.Time, tmp string) (*inprocDriver, error) {
	d := &inprocDriver{
		p: p, f: f, tr: tr, epoch: epoch,
		local:   transport.NewLocal(),
		verdict: make([]int8, p.Provers),
		pv:      make([]prover, p.Provers),
		halt:    make(chan struct{}),
	}
	var tp transport.Transport = d.local
	if tr != nil {
		tp = &tracedTransport{inner: d.local, t: tr}
	}
	var err error
	if d.srv, err = rattd.Serve(tp, rattd.Config{Name: daemon, Ref: f.image, BlockSize: p.BlockSize}); err != nil {
		return nil, err
	}
	for i, name := range f.names {
		d.pv[i].next.Store(f.first[i])
		if err := d.local.Bind(name, func(m transport.Msg) {
			if m.Kind == transport.KindVerdict {
				d.verdict[i] = 2
				if m.OK {
					d.verdict[i] = 1
				}
			}
		}); err != nil {
			return nil, err
		}
	}
	per := (p.Provers + p.Workers - 1) / p.Workers
	for lo := 0; lo < p.Provers; lo += per {
		d.workers = append(d.workers, &inprocWorker{lo: lo, hi: min(lo+per, p.Provers)})
	}
	if p.CkptEvery > 0 {
		if d.ckptDir, err = os.MkdirTemp(tmp, "ckpt-"); err != nil {
			return nil, err
		}
		d.ckpt = rattd.NewCheckpointer(d.srv, rattd.CheckpointerConfig{Path: filepath.Join(d.ckptDir, "fleet.ckpt")})
	}
	return d, nil
}

func (d *inprocDriver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *inprocDriver) close() {
	d.srv.Close()
	d.local.Close()
	if d.ckptDir != "" {
		os.RemoveAll(d.ckptDir)
	}
}

// ingest runs one worker: round-robin over its provers, one
// collection per call, until the phase reads stop.
func (d *inprocDriver) ingest(w *inprocWorker) {
	H := d.p.History
	i := w.lo
	for {
		ph := d.phase.Load()
		if ph == phaseStop {
			return
		}
		pv := &d.pv[i]
		if !pv.busy.CompareAndSwap(0, 1) {
			panic("rattbench: prover owned by two workers") // disjoint ranges: a driver bug
		}
		c := pv.next.Load()
		if int(c)-1+H > len(d.f.pool) {
			pv.busy.Store(0)
			d.haltOnce.Do(func() { close(d.halt) })
			return
		}
		d.verdict[i] = 0
		t0 := d.now()
		d.srv.IngestImage(d.f.names[i], transport.KindCollection, "", d.f.pool[c-1:int(c)-1+H])
		t1 := d.now()
		pv.busy.Store(0)
		pv.next.Store(c + uint64(H))
		w.sent += int64(H)
		switch d.verdict[i] {
		case 1:
			w.okReports += int64(H)
			pv.last.Store(c)
		case 2:
			w.rejected += int64(H)
		default:
			w.missing++
			w.rejected += int64(H)
		}
		w.lat.add(window(ph), t1-t0)
		if d.tr != nil && d.tr.sampled[i] {
			seq := pv.seq.Add(1)
			d.tr.add(spanExchange, int32(i), seq, t0, t1)
			d.tr.add(spanHandle, int32(i), seq, t0, t1)
		}
		if i++; i == w.hi {
			i = w.lo
			w.rounds.Add(1)
		}
	}
}

// checkpoints ticks the checkpointer at the configured cadence until
// stop closes, recording the ticks of the timed phase.
func (d *inprocDriver) checkpoints(o *outcome, stop <-chan struct{}, errp *error) {
	t := time.NewTicker(d.p.CkptEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		t0 := time.Now()
		if err := d.ckpt.Tick(); err != nil {
			*errp = err
			return
		}
		dur := time.Since(t0)
		if window(d.phase.Load()) >= 0 {
			st := d.ckpt.Stats()
			o.ticks = append(o.ticks, tickSample{dur: dur, bytes: st.LastBytes, dirty: st.LastDirty})
		}
	}
}

func (d *inprocDriver) run(o *outcome) error {
	base := settledHeap()
	var wg sync.WaitGroup
	for _, w := range d.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.ingest(w)
		}()
	}
	var ckptErr error
	ckptStop := make(chan struct{})
	var ckptWG sync.WaitGroup
	if d.ckpt != nil {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			d.checkpoints(o, ckptStop, &ckptErr)
		}()
	}
	warmed := func() bool {
		for _, w := range d.workers {
			if w.rounds.Load() == 0 {
				return false
			}
		}
		return true
	}
	err := timedPhase(d.p, o, d.srv, d.tr, &d.phase, warmed, d.halt, func(begin bool) {
		if d.ckpt == nil {
			return
		}
		if begin {
			o.ckpt0 = d.ckpt.Stats()
		} else {
			o.ckpt1 = d.ckpt.Stats()
		}
	})
	wg.Wait()
	close(ckptStop)
	ckptWG.Wait()
	if err != nil {
		return err
	}
	o.check(ckptErr == nil, "checkpoint tick failed: %v", ckptErr)

	// Replay sample: resubmit a prover's last accepted collection.
	var eligible []int
	for i := range d.pv {
		if d.pv[i].last.Load() != 0 {
			eligible = append(eligible, i)
		}
	}
	var replays, replayAccepted int64
	for _, i := range replaySample(d.p, eligible) {
		c := d.pv[i].last.Load()
		d.verdict[i] = 0
		d.srv.IngestImage(d.f.names[i], transport.KindCollection, "", d.f.pool[c-1:int(c)-1+d.p.History])
		replays += int64(d.p.History)
		if d.verdict[i] != 2 {
			replayAccepted++
		}
	}

	var sent, okReports, rejected, missing int64
	var lats []*winLat
	var sampleBytes uint64
	var maxCounter uint64
	for _, w := range d.workers {
		sent += w.sent
		okReports += w.okReports
		rejected += w.rejected
		missing += w.missing
		lats = append(lats, &w.lat)
		sampleBytes += w.lat.bytes()
	}
	for i := range d.pv {
		maxCounter = max(maxCounter, d.pv[i].next.Load())
	}
	o.bytesPerProver = heapPerProver(base+sampleBytes, d.p.Provers)
	o.lat = mergeWin(lats...)
	o.attempted, o.failed = sent, rejected
	serverChecks(o, d.srv.Counts(), sent, okReports, replays, 0)
	o.check(rejected == 0, "%d honest reports rejected", rejected)
	o.check(missing == 0, "%d collections returned without a verdict", missing)
	o.check(replayAccepted == 0, "%d replayed collections not rejected", replayAccepted)
	o.check(replays > 0, "no replay sample was sent")
	o.sample = sampleReports(d.f, maxCounter, 64)
	if o.sample == nil {
		return errors.New("no reports were sent")
	}
	return nil
}
