package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"saferatt/internal/transport"
)

// Span kinds, one per layer boundary the benchmark can see from
// outside the program.
const (
	spanExchange   = iota // request due/sent -> verdict delivered (bench)
	spanClientSend        // client Net.Send (transport)
	spanRespond           // prover computes its SMART tag online (bench)
	spanHandle            // server handler call: wrapped FrameHandler or IngestImage (rattd)
	spanReplySend         // server reply Send through the wrapper (transport)
)

var spanNames = [...]string{"exchange", "transport.client_send", "prover.respond", "rattd.handle", "transport.reply_send"}

// span is one timed interval. Client-side spans carry the exchange
// sequence; server-side spans only know the prover (the wire has no
// room for a benchmark request id) and are matched to the prover's
// exchange in flight by time, which is unambiguous because a prover
// never has two exchanges in flight.
type span struct {
	start, end int64 // ns since the run's epoch
	prover     int32
	seq        uint32 // 0: unknown, match by time
	kind       uint8
}

// tracer keeps spans in a preallocated buffer (no allocation while
// recording) for one prover in TraceEvery; spans past the buffer are
// counted and dropped.
type tracer struct {
	epoch   time.Time
	traced  map[string]int32 // sampled provers by name
	sampled []bool
	buf     []span
	n       atomic.Int64
	active  atomic.Bool // spans are kept only during the timed phase
}

func newTracer(f *fleet, every, capacity int, epoch time.Time) *tracer {
	t := &tracer{
		epoch:   epoch,
		traced:  map[string]int32{},
		sampled: make([]bool, len(f.names)),
		buf:     make([]span, capacity),
	}
	for i, name := range f.names {
		if i%every == 0 {
			t.traced[name] = int32(i)
			t.sampled[i] = true
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(kind uint8, prover int32, seq uint32, start, end int64) {
	if !t.active.Load() {
		return
	}
	if i := t.n.Add(1) - 1; i < int64(len(t.buf)) {
		t.buf[i] = span{start: start, end: end, prover: prover, seq: seq, kind: kind}
	}
}

func (t *tracer) spans() []span { return t.buf[:min(t.n.Load(), int64(len(t.buf)))] }

// tracedTransport wraps the server's transport to time its replies.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
}

func (w *tracedTransport) Bind(name string, h transport.Handler) error { return w.inner.Bind(name, h) }
func (w *tracedTransport) Unbind(name string)                          { w.inner.Unbind(name) }
func (w *tracedTransport) Close() error                                { return w.inner.Close() }

func (w *tracedTransport) Send(m transport.Msg) error {
	i, ok := w.t.traced[m.To]
	if !ok {
		return w.inner.Send(m)
	}
	t0 := w.t.now()
	err := w.inner.Send(m)
	w.t.add(spanReplySend, i, 0, t0, w.t.now())
	return err
}

func (w *tracedTransport) SendBatch(ms []transport.Msg) error {
	bs, ok := w.inner.(transport.BatchSender)
	if !ok {
		for _, m := range ms {
			if err := w.Send(m); err != nil {
				return err
			}
		}
		return nil
	}
	t0 := w.t.now()
	err := bs.SendBatch(ms)
	t1 := w.t.now()
	for _, m := range ms {
		if i, ok := w.t.traced[m.To]; ok {
			w.t.add(spanReplySend, i, 0, t0, t1)
		}
	}
	return err
}

// tracedNet adds zero-copy frame delivery, so the server keeps its
// view-frame receive path while each handler call is timed.
type tracedNet struct {
	tracedTransport
	net *transport.Net
}

func (w *tracedNet) BindFrames(name string, h transport.FrameHandler) error {
	return w.net.BindFrames(name, func(f *transport.Frame) {
		i, ok := w.t.traced[f.From]
		if !ok {
			h(f)
			return
		}
		t0 := w.t.now()
		h(f)
		w.t.add(spanHandle, i, 0, t0, w.t.now())
	})
}

// layerTimes are per-layer durations (ns) derived from one run's spans.
type layerTimes struct {
	clientSend, replySend, respond []uint32
	handle, handleSelf             []uint32
	residual, transportSelf        []uint32
	exchanges, unmatched, dropped  int
	parent                         []int32
}

// analyze assigns every span its parent (server spans by time within
// the prover's exchange, reply sends within their handler call) and
// computes each layer's time and self time. In process the exchange
// is the handler call itself, so the residual is zero by construction.
func (t *tracer) analyze() layerTimes {
	sp := t.spans()
	lt := layerTimes{dropped: int(t.n.Load()) - len(sp), parent: make([]int32, len(sp))}
	idx := make([]int32, len(sp))
	for i := range idx {
		idx[i] = int32(i)
		lt.parent[i] = -1
	}
	// Per prover in time order; exchanges before the spans they open.
	slices.SortFunc(idx, func(a, b int32) int {
		x, y := &sp[a], &sp[b]
		switch {
		case x.prover != y.prover:
			return int(x.prover - y.prover)
		case x.start != y.start:
			if x.start < y.start {
				return -1
			}
			return 1
		}
		return int(x.kind) - int(y.kind)
	})
	type agg struct{ handle, reply, client, respond int64 }
	sums := map[int32]*agg{}
	var ex, hd int32 = -1, -1 // current exchange and handler of the prover
	cur := int32(-1)
	for _, i := range idx {
		s := &sp[i]
		if s.prover != cur {
			cur, ex, hd = s.prover, -1, -1
		}
		switch s.kind {
		case spanExchange:
			ex, hd = i, -1
			sums[i] = &agg{}
			continue
		case spanReplySend:
			if hd >= 0 && s.start <= sp[hd].end {
				lt.parent[i] = hd
			}
		default:
			if ex >= 0 && s.start <= sp[ex].end && (s.seq == 0 || s.seq == sp[ex].seq) {
				lt.parent[i] = ex
			}
			if s.kind == spanHandle {
				hd = i
			}
		}
		if lt.parent[i] < 0 {
			lt.unmatched++
		}
	}
	handleReply := map[int32]int64{}
	for i := range sp {
		s, p := &sp[i], lt.parent[i]
		d := s.end - s.start
		switch s.kind {
		case spanClientSend:
			lt.clientSend = append(lt.clientSend, clampNS(d))
		case spanReplySend:
			lt.replySend = append(lt.replySend, clampNS(d))
			if p >= 0 {
				handleReply[p] += d
				if e := lt.parent[p]; e >= 0 {
					sums[e].reply += d
				}
			}
		case spanRespond:
			lt.respond = append(lt.respond, clampNS(d))
		case spanHandle:
			lt.handle = append(lt.handle, clampNS(d))
		}
		if p >= 0 && s.kind != spanReplySend {
			a := sums[p]
			switch s.kind {
			case spanHandle:
				a.handle += d
			case spanClientSend:
				a.client += d
			case spanRespond:
				a.respond += d
			}
		}
	}
	for i := range sp {
		if sp[i].kind == spanHandle {
			lt.handleSelf = append(lt.handleSelf, clampNS(sp[i].end-sp[i].start-handleReply[int32(i)]))
		}
	}
	for i, a := range sums {
		lt.exchanges++
		if a.handle == 0 {
			continue
		}
		res := sp[i].end - sp[i].start - a.handle
		lt.residual = append(lt.residual, clampNS(res))
		lt.transportSelf = append(lt.transportSelf, clampNS(res-a.client-a.respond))
	}
	for _, l := range []*[]uint32{&lt.clientSend, &lt.replySend, &lt.respond, &lt.handle, &lt.handleSelf, &lt.residual, &lt.transportSelf} {
		slices.Sort(*l)
	}
	return lt
}

// write stores the spans as CSV: id, name, start and end (ns since
// the run's epoch), parent id (-1 for roots) and request id
// (prover<<32 | exchange sequence of the root).
func (t *tracer) write(path string, lt layerTimes) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,request")
	sp := t.spans()
	for i := range sp {
		root := int32(i)
		for lt.parent[root] >= 0 {
			root = lt.parent[root]
		}
		req := uint64(sp[i].prover)<<32 | uint64(sp[root].seq)
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[sp[i].kind], sp[i].start, sp[i].end, lt.parent[i], req)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
