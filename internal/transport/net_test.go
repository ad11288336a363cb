package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestNetLossRetrySurvival pins the reliability contract: under heavy
// injected datagram loss on both sides (data frames and acks alike),
// every reliable send is still delivered exactly once.
func TestNetLossRetrySurvival(t *testing.T) {
	const drop = 0.25
	srv, err := Listen(NetConfig{DropRate: drop, DropSeed: 1, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{DropRate: drop, DropSeed: 2, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const total = 200
	var mu sync.Mutex
	got := map[uint64]int{}
	if err := srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == total {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("delivered %d/%d distinct requests under %.0f%% loss", len(got), total, drop*100)
	}
	for id, count := range got {
		if count != 1 {
			t.Fatalf("request %d delivered %d times", id, count)
		}
	}
	cs, ss := cli.Stats(), srv.Stats()
	if cs.Resent == 0 {
		t.Fatalf("no retransmissions under %.0f%% injected loss: %+v", drop*100, cs)
	}
	if cs.Injected == 0 && ss.Injected == 0 {
		t.Fatalf("loss model never fired: cli %+v srv %+v", cs, ss)
	}
}

// TestNetDrainCompletes pins graceful drain: after Drain returns with
// loss in play, no reliable send is still pending or expired, and the
// server handled every message exactly once. Datagram counts (Acked)
// are not asserted: how many messages share a datagram depends on
// when acks land relative to the sends.
func TestNetDrainCompletes(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{DropRate: 0.3, DropSeed: 3, RetryBase: 2 * time.Millisecond, RetryCap: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const total = 50
	var mu sync.Mutex
	seen := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		seen[m.ReqID]++
		mu.Unlock()
	})
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cli.Drain(5 * time.Second)
	if left := cli.pendingCount(); left != 0 {
		t.Fatalf("%d requests still pending after drain", left)
	}
	if s := cli.Stats(); s.Expired != 0 {
		t.Fatalf("%d requests expired: %+v", s.Expired, s)
	}
	// The server acks a datagram before dispatching it, so the last
	// handler calls may trail the drain briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == total || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for id := uint64(1); id <= total; id++ {
		if seen[id] != 1 {
			t.Fatalf("request %d handled %d times (server %+v)", id, seen[id], srv.Stats())
		}
	}
	if len(seen) != total {
		t.Fatalf("handled %d distinct requests, want %d", len(seen), total)
	}
}

// TestNetRejectsOtherVersions pins the single wire version: data, ack
// and batch frames carrying any version byte but CodecVersion count as
// Malformed and reach no handler, while a current frame from the same
// socket is delivered.
func TestNetRejectsOtherVersions(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var got []uint64
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got = append(got, m.ReqID)
		mu.Unlock()
	})
	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var other [][]byte
	for _, ver := range []byte{1, CodecVersion + 1} {
		for _, f := range [][]byte{
			AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}),
			AppendAck(nil, 2),
			AppendBatch(nil, 3, []*Msg{{From: "prv", To: "vrf", Kind: KindHello, ReqID: 4}}),
		} {
			f[2] = ver
			other = append(other, f)
		}
	}
	for _, f := range other {
		if _, err := raw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 5})); err != nil {
		t.Fatal(err)
	}
	// Received is counted just before the handler runs, so wait for
	// the handler's own record as well.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if (n == 1 && srv.Stats().Malformed == uint64(len(other))) || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s := srv.Stats(); s.Malformed != uint64(len(other)) || s.Received != 1 || s.BatchesRecv != 0 {
		t.Fatalf("want %d malformed and 1 received: %+v", len(other), s)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("handler saw requests %v, want only [5]", got)
	}
}

// TestNetRequestExpiry pins the per-request deadline: a peer that never
// acks makes the send expire instead of retrying forever.
func TestNetRequestExpiry(t *testing.T) {
	cli, err := Listen(NetConfig{RetryBase: 2 * time.Millisecond, RetryCap: 10 * time.Millisecond, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Dead peer: grab a kernel-assigned port, then close it. Sends to
	// the address succeed at the UDP layer but nothing ever acks.
	dead, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if err := cli.AddRoute("vrf", addr); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cli.Stats().Expired == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := cli.Stats(); s.Expired != 1 || s.Acked != 0 {
		t.Fatalf("expected one expired request: %+v", s)
	}
	if cli.pendingCount() != 0 {
		t.Fatalf("expired request still pending")
	}
}

// TestNetNoRoute pins the error path for an unroutable destination on a
// transport with no default route.
func TestNetNoRoute(t *testing.T) {
	n, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(Msg{From: "a", To: "nowhere", Kind: KindHello}); err == nil {
		t.Fatal("send to unroutable name succeeded")
	}
}

// TestNetConcurrentSenders exercises the socket, dedup window and
// pending map from many goroutines at once (meaningful under -race).
func TestNetConcurrentSenders(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var mu sync.Mutex
	seen := map[string]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		seen[m.From]++
		mu.Unlock()
	})
	const workers, each = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := fmt.Sprintf("prv%03d", w)
			for i := 0; i < each; i++ {
				if err := cli.Send(Msg{From: from, To: "vrf", Kind: KindHello}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cli.Drain(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range seen {
		total += n
	}
	if len(seen) != workers || total != workers*each {
		t.Fatalf("delivered %d msgs from %d senders, want %d from %d", total, len(seen), workers*each, workers)
	}
}

// TestNetBatchCoalescing pins that coalescing actually happens on the
// wire: a concurrent burst toward a known-v2 peer leaves as batch
// frames (client Coalesced/BatchesSent count up, server BatchesRecv
// counts up), every message still arrives exactly once, and batch
// sub-requests dedup individually under retransmission.
func TestNetBatchCoalescing(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	got := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	})

	// Teach the client the server speaks v2 (the priming send's ack
	// carries the version), then submit a burst through SendBatch.
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Drain(5 * time.Second)
	const burst = 100
	ms := make([]Msg, burst)
	for i := range ms {
		ms[i] = Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(2 + i)}
	}
	if err := cli.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	cli.Drain(5 * time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == burst+1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst+1 {
		t.Fatalf("delivered %d/%d distinct requests", len(got), burst+1)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("request %d delivered %d times", id, n)
		}
	}
	cs, ss := cli.Stats(), srv.Stats()
	if cs.BatchesSent == 0 || cs.Coalesced == 0 {
		t.Fatalf("burst never coalesced: client %+v", cs)
	}
	if ss.BatchesRecv == 0 {
		t.Fatalf("server saw no batch frames: %+v", ss)
	}
	if cs.Sent >= burst+1 {
		t.Fatalf("coalescing saved no datagrams: %d sent for %d messages", cs.Sent, burst+1)
	}
}

// TestNetCoalescingUnderLoss runs a coalesced burst under injected
// loss on both sides: whole-batch retransmission must not re-deliver
// any sub-request (they dedup individually).
func TestNetCoalescingUnderLoss(t *testing.T) {
	const drop = 0.2
	fast := NetConfig{DropRate: drop, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond}
	srvCfg := fast
	srvCfg.DropSeed = 21
	srv, err := Listen(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cliCfg := fast
	cliCfg.DropSeed = 22
	cli, err := Dial(srv.Addr().String(), cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	got := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	})
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Drain(10 * time.Second)
	const burst = 150
	ms := make([]Msg, burst)
	for i := range ms {
		ms[i] = Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(2 + i)}
	}
	if err := cli.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == burst+1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst+1 {
		t.Fatalf("delivered %d/%d distinct requests under %.0f%% loss", len(got), burst+1, drop*100)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("request %d delivered %d times", id, n)
		}
	}
}

// TestNetQueueDropRecovery pins the backpressure contract: with a tiny
// receive queue, floods evict datagrams (QueueDrops counts them) but
// reliable retransmission still lands every request eventually.
func TestNetQueueDropRecovery(t *testing.T) {
	srv, err := Listen(NetConfig{QueueCap: 8, RecvQueues: 1,
		RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{
		RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond,
		MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var mu sync.Mutex
	got := map[uint64]bool{}
	srv.Bind("vrf", func(m Msg) {
		// A slow handler so the tiny queue actually overflows.
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		got[m.ReqID] = true
		mu.Unlock()
	})
	const total = 300
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == total {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != total {
		t.Fatalf("delivered %d/%d after queue-drop recovery (server %+v)", n, total, srv.Stats())
	}
}
