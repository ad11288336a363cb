package main

import (
	"errors"
	"math"
	"math/rand/v2"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

const daemon = "rattd"

// udpDriver runs provers on real loopback sockets against a server
// listening on its own socket in this process, in a closed loop: a
// fixed window of exchanges is in flight, and each verdict launches
// the next exchange on the next idle prover. udp-flood sends
// collections; udp-smart runs SMART rounds (hello, challenge, report
// with a tag the prover computes online, verdict).
type udpDriver struct {
	p     *params
	f     *fleet
	tr    *tracer
	epoch time.Time

	srvNet *transport.Net
	srv    *rattd.Server
	socks  []*clientSock
	pv     []prover

	phase    atomic.Int32
	inflight atomic.Int64
	halt     chan struct{}
	haltOnce sync.Once
	stopWD   chan struct{} // closed to stop the watchdog
	wdDone   chan struct{} // closed when the watchdog has returned

	honestSent, replaySent atomic.Int64 // reports
	okReports, badReports  atomic.Int64 // honest reports by verdict
	replayBundles          atomic.Int64
	replayVerdicts         atomic.Int64
	replayAccepted         atomic.Int64
	lostReports            atomic.Int64 // honest reports of timed-out exchanges
	unexpected             atomic.Int64
	sendErrors             atomic.Int64
	completed              atomic.Int64
	maxCounter             atomic.Uint64
}

// clientSock is one client socket and the provers bound on it.
type clientSock struct {
	net     *transport.Net
	provers []int32 // launch order: a seeded permutation
	cursor  atomic.Uint64
	limit   atomic.Uint64 // launches stop when cursor reaches it

	mu        sync.Mutex // guards the fields below (transport workers)
	lat       winLat
	responder *rattd.Prover
	smart     []core.Report
}

func newUDP(p *params, f *fleet, tr *tracer, epoch time.Time) (*udpDriver, error) {
	d := &udpDriver{
		p: p, f: f, tr: tr, epoch: epoch,
		pv:     make([]prover, p.Provers),
		halt:   make(chan struct{}),
		stopWD: make(chan struct{}),
		wdDone: make(chan struct{}),
	}
	var err error
	if d.srvNet, err = transport.Listen(transport.NetConfig{RecvQueues: serverQueues}); err != nil {
		return nil, err
	}
	var srvTr transport.Transport = d.srvNet
	if tr != nil {
		srvTr = &tracedNet{tracedTransport{inner: d.srvNet, t: tr}, d.srvNet}
	}
	if d.srv, err = rattd.Serve(srvTr, rattd.Config{Name: daemon, Ref: f.image, BlockSize: p.BlockSize}); err != nil {
		d.srvNet.Close()
		return nil, err
	}
	clients, err := dialSpread(d.srvNet.Addr().String(), p.Sockets)
	if err != nil {
		d.close()
		return nil, err
	}
	for _, n := range clients {
		resp, err := rattd.NewProver("responder", rattd.DefaultKey, f.image, p.BlockSize)
		if err != nil {
			closeAll(clients)
			d.close()
			return nil, err
		}
		d.socks = append(d.socks, &clientSock{net: n, responder: resp})
	}
	order := rand.New(rand.NewPCG(p.Seed, 0x5eed)).Perm(p.Provers)
	for _, i := range order {
		s := d.socks[i%p.Sockets]
		s.provers = append(s.provers, int32(i))
		d.pv[i].next.Store(f.first[i])
		if err := s.net.BindFrames(f.names[i], func(fr *transport.Frame) { d.onFrame(s, int32(i), fr) }); err != nil {
			d.close()
			return nil, err
		}
	}
	for _, s := range d.socks {
		s.limit.Store(uint64(memRounds * len(s.provers)))
	}
	return d, nil
}

// serverQueues is the server transport's receive-queue count.
const serverQueues = 4

// memRounds is how many exchanges every prover makes before the live
// heap is measured. The server transport's per-peer dedup state grows
// with the request IDs a peer has sent, in steps as its map doubles,
// so a heap taken after a timed phase tracks throughput and jumps
// between runs; after a fixed number of exchanges per prover it reads
// the same every time.
const memRounds = 4

// dialSpread opens n client sockets whose source addresses land on
// distinct server receive queues. The server shards datagrams by
// source address (FNV-1a over address and port, as transport's
// addrShard does), so with kernel-chosen ports two sockets would share
// a queue in one run of four, and such a run measures a differently
// loaded server.
func dialSpread(addr string, n int) ([]*transport.Net, error) {
	var out []*transport.Net
	used := map[int]bool{}
	for tries := 0; len(out) < n; tries++ {
		c, err := transport.Dial(addr, transport.NetConfig{})
		if err != nil {
			return nil, errors.Join(err, closeAll(out))
		}
		ap, err := netip.ParseAddrPort(c.Addr().String())
		if err != nil {
			return nil, errors.Join(err, c.Close(), closeAll(out))
		}
		if q := queueOf(ap, serverQueues); !used[q] || tries > 64 {
			used[q] = true
			out = append(out, c)
			continue
		}
		c.Close()
	}
	return out, nil
}

// queueOf mirrors transport's addrShard.
func queueOf(ap netip.AddrPort, queues int) int {
	a16 := ap.Addr().Unmap().As16()
	h := uint32(2166136261)
	for _, b := range a16 {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(ap.Port())) * 16777619
	return int(h % uint32(queues))
}

func closeAll(ns []*transport.Net) error {
	var errs []error
	for _, n := range ns {
		errs = append(errs, n.Close())
	}
	return errors.Join(errs...)
}

func (d *udpDriver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *udpDriver) close() {
	if d.srv != nil {
		d.srv.Close()
	}
	for _, s := range d.socks {
		s.net.Close()
	}
	d.srvNet.Close()
}

func (d *udpDriver) stopEarly() { d.haltOnce.Do(func() { close(d.halt) }) }

// launch starts an exchange for prover i unless it is busy; start is
// its send time.
func (d *udpDriver) launch(s *clientSock, i int32, kind int32, start int64) bool {
	pv := &d.pv[i]
	if !pv.busy.CompareAndSwap(0, 1) {
		return false
	}
	H := d.p.History
	m := transport.Msg{From: d.f.names[i], To: daemon, Kind: transport.KindCollection}
	var c uint64
	switch kind {
	case kindSMART:
		m.Kind = transport.KindHello
		d.honestSent.Add(1) // the report follows the challenge
	case kindReplay:
		c = pv.last.Load()
	default:
		c = pv.next.Load()
		if int(c)-1+H > len(d.f.pool) {
			pv.busy.Store(0)
			d.stopEarly()
			return false
		}
		pv.next.Store(c + uint64(H))
		if top := c + uint64(H) - 1; top > d.maxCounter.Load() {
			d.maxCounter.Store(top) // racy max: only sizes the layer sample
		}
	}
	if c != 0 {
		m.Reports = d.f.poolp[c-1 : int(c)-1+H]
		if kind == kindReplay {
			d.replaySent.Add(int64(H))
			d.replayBundles.Add(1)
		} else {
			d.honestSent.Add(int64(H))
		}
	}
	pv.kind.Store(kind)
	pv.start.Store(start)
	pv.cur.Store(c)
	seq := pv.seq.Add(1)
	d.inflight.Add(1)
	d.send(s, i, seq, m)
	return true
}

func (d *udpDriver) send(s *clientSock, i int32, seq uint32, m transport.Msg) {
	var err error
	if d.tr != nil && d.tr.sampled[i] {
		t0 := d.now()
		err = s.net.Send(m)
		d.tr.add(spanClientSend, i, seq, t0, d.now())
	} else {
		err = s.net.Send(m)
	}
	if err != nil {
		d.sendErrors.Add(1) // the exchange times out and counts as failed
	}
}

// launchNext starts an exchange on the next idle prover of s.
func (d *udpDriver) launchNext(s *clientSock) {
	kind := int32(kindCollect)
	if d.p.Smart {
		kind = kindSMART
	}
	for tries := 0; tries < len(s.provers); tries++ {
		k := s.cursor.Add(1) - 1
		if k >= s.limit.Load() {
			return
		}
		i := s.provers[k%uint64(len(s.provers))]
		if d.pv[i].busy.Load() == 0 && d.launch(s, i, kind, d.now()) {
			return
		}
	}
}

// onFrame is a prover's receive handler: it answers a challenge with
// a freshly computed report, and closes the exchange on a verdict.
func (d *udpDriver) onFrame(s *clientSock, i int32, f *transport.Frame) {
	pv := &d.pv[i]
	switch f.Kind {
	case transport.KindChallenge:
		if pv.busy.Load() != 1 || pv.kind.Load() != kindSMART {
			d.unexpected.Add(1)
			return
		}
		var t0 int64
		if d.tr != nil && d.tr.sampled[i] {
			t0 = d.now()
		}
		s.mu.Lock()
		rep, err := s.responder.Respond(f.Nonce)
		if err == nil && len(s.smart) < 64 {
			s.smart = append(s.smart, *rep)
		}
		s.mu.Unlock()
		if err != nil {
			d.unexpected.Add(1)
			return
		}
		seq := pv.seq.Load()
		if t0 != 0 {
			d.tr.add(spanRespond, i, seq, t0, d.now())
		}
		d.send(s, i, seq, transport.Msg{From: d.f.names[i], To: daemon, Kind: transport.KindReport,
			Reports: []*core.Report{rep}})
	case transport.KindVerdict:
		now := d.now()
		kind, start, c, seq := pv.kind.Load(), pv.start.Load(), pv.cur.Load(), pv.seq.Load()
		if !pv.busy.CompareAndSwap(1, 0) {
			if pv.busy.Load() != 2 { // 2: a verdict after a timeout, already counted failed
				d.unexpected.Add(1)
			}
			return
		}
		d.inflight.Add(-1)
		n := int64(d.p.History)
		if kind == kindSMART {
			n = 1
		}
		switch {
		case kind == kindReplay:
			d.replayVerdicts.Add(1)
			if f.OK {
				d.replayAccepted.Add(1)
			}
		case f.OK:
			d.okReports.Add(n)
			if kind == kindCollect {
				pv.last.Store(c)
			}
		default:
			d.badReports.Add(n)
		}
		if w := window(d.phase.Load()); kind != kindReplay && w >= 0 {
			s.mu.Lock()
			s.lat.add(w, now-start)
			s.mu.Unlock()
		}
		if d.tr != nil && d.tr.sampled[i] {
			d.tr.add(spanExchange, i, seq, start, now)
		}
		d.completed.Add(1)
		if d.phase.Load() != phaseStop {
			d.launchNext(s)
		}
	default:
		d.unexpected.Add(1)
	}
}

// watchdog retires provers whose exchange outlived the timeout: the
// exchange counts as failed, and in a closed loop its window slot
// passes to the next prover.
func (d *udpDriver) watchdog() {
	defer close(d.wdDone)
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-d.stopWD:
			return
		case <-t.C:
		}
		now := d.now()
		for i := range d.pv {
			pv := &d.pv[i]
			if pv.busy.Load() != 1 || now-pv.start.Load() < int64(d.p.Timeout) || !pv.busy.CompareAndSwap(1, 2) {
				continue
			}
			d.inflight.Add(-1)
			switch pv.kind.Load() {
			case kindSMART:
				d.lostReports.Add(1)
			case kindCollect:
				d.lostReports.Add(int64(d.p.History))
			}
			if d.phase.Load() != phaseStop {
				d.launchNext(d.socks[i%d.p.Sockets])
			}
		}
	}
}

func (d *udpDriver) netSnap() netSnap {
	var n netSnap
	for _, s := range d.socks {
		st := s.net.Stats()
		n.client.Sent += st.Sent
		n.client.Resent += st.Resent
		n.client.Expired += st.Expired
		n.client.QueueDrops += st.QueueDrops
		n.client.BatchesSent += st.BatchesSent
		n.client.Coalesced += st.Coalesced
	}
	n.server = d.srvNet.Stats()
	return n
}

// waitIdle waits until no exchange is in flight, or the timeout (and
// the watchdog's reaction to it) has certainly passed.
func (d *udpDriver) waitIdle() {
	deadline := time.Now().Add(d.p.Timeout + time.Second)
	for d.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// prime fills the window; each verdict launches the next exchange.
func (d *udpDriver) prime() {
	for k := 0; k < d.p.Window; k++ {
		d.launchNext(d.socks[k%len(d.socks)])
	}
}

// fixedRounds drives every prover through exactly memRounds exchanges
// and waits until the fleet is idle, returns the live heap grown since
// base per prover, then lifts the launch limit and primes the window
// again.
func (d *udpDriver) fixedRounds(base uint64) (float64, error) {
	d.prime()
	deadline := time.Now().Add(60 * time.Second)
	for !d.roundsDone() {
		if time.Now().After(deadline) {
			return 0, errors.New("the fleet did not finish its fixed rounds")
		}
		select {
		case <-d.halt:
			return 0, errors.New("input pool exhausted during the fixed rounds")
		case <-time.After(2 * time.Millisecond):
		}
	}
	for _, s := range d.socks {
		s.net.Drain(0)
	}
	d.srvNet.Drain(0)
	perProver := heapPerProver(base, d.p.Provers)
	for _, s := range d.socks {
		s.limit.Store(math.MaxUint64)
	}
	d.prime()
	return perProver, nil
}

// roundsDone reports whether every socket reached its launch limit
// and no exchange is in flight.
func (d *udpDriver) roundsDone() bool {
	for _, s := range d.socks {
		if s.cursor.Load() < s.limit.Load() {
			return false
		}
	}
	return d.inflight.Load() == 0
}

func (d *udpDriver) run(o *outcome) error {
	go d.watchdog()
	stopWatchdog := sync.OnceFunc(func() {
		close(d.stopWD)
		<-d.wdDone
	})
	defer stopWatchdog()
	var err error
	if o.bytesPerProver, err = d.fixedRounds(settledHeap()); err != nil {
		return err
	}
	// Warm until every prover has made contact, so the server's
	// per-prover state stops growing before the timed phase.
	warmed := func() bool { return d.completed.Load() >= int64(d.p.Provers) }
	err = timedPhase(d.p, o, d.srv, d.tr, &d.phase, warmed, d.halt, func(begin bool) {
		if begin {
			o.net0 = d.netSnap()
		} else {
			o.net1 = d.netSnap()
		}
	})
	if err != nil {
		return err
	}
	d.waitIdle()

	// Replay sample: resubmit a prover's last accepted collection. A
	// prover that only ran SMART rounds sends one collection first.
	var eligible []int
	for i := range d.pv {
		if d.pv[i].busy.Load() == 0 {
			eligible = append(eligible, i)
		}
	}
	sample := replaySample(d.p, eligible)
	for _, i := range sample {
		if d.pv[i].last.Load() == 0 {
			d.launch(d.socks[i%d.p.Sockets], int32(i), kindCollect, d.now())
		}
	}
	d.waitIdle()
	for _, i := range sample {
		if d.pv[i].last.Load() != 0 {
			d.launch(d.socks[i%d.p.Sockets], int32(i), kindReplay, d.now())
		}
	}
	d.waitIdle()
	stopWatchdog()
	for _, s := range d.socks {
		s.net.Drain(0)
	}
	d.srvNet.Drain(0)

	var lat []*winLat
	for _, s := range d.socks {
		s.mu.Lock()
		lat = append(lat, &s.lat)
		s.mu.Unlock()
	}
	o.lat = mergeWin(lat...)

	lost := d.lostReports.Load()
	o.attempted = d.honestSent.Load()
	o.failed = d.badReports.Load() + lost
	serverChecks(o, d.srv.Counts(), o.attempted, d.okReports.Load(), d.replaySent.Load(), lost)
	o.check(d.badReports.Load() == 0, "%d honest reports rejected", d.badReports.Load())
	o.check(d.replayAccepted.Load() == 0, "%d replayed collections accepted", d.replayAccepted.Load())
	o.check(d.replayVerdicts.Load() == d.replayBundles.Load(), "%d replay verdicts for %d replayed collections",
		d.replayVerdicts.Load(), d.replayBundles.Load())
	o.check(d.replayBundles.Load() > 0 && d.replayBundles.Load() == int64(len(sample)),
		"%d replayed collections for a sample of %d provers", d.replayBundles.Load(), len(sample))
	o.check(d.unexpected.Load() == 0, "%d frames arrived for no exchange in flight", d.unexpected.Load())
	o.check(d.sendErrors.Load() == 0, "%d sends failed", d.sendErrors.Load())

	o.sample = sampleReports(d.f, d.maxCounter.Load(), 64)
	for _, s := range d.socks {
		s.mu.Lock()
		o.sample = append(o.sample, s.smart...)
		s.mu.Unlock()
	}
	if o.sample == nil {
		return errors.New("no reports were sent")
	}
	return nil
}
