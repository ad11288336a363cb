package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// E17 is the heterogeneous-fleet run: one rattd shard serving a
// registry of per-class golden images, with a live rotation of one
// class mid-run. Where E15 certified scale for a uniform fleet, E17
// certifies that image heterogeneity and an OTA update in flight cost
// nothing in correctness:
//
//   - every report verifies against its device class's image — never
//     another class's (cross-class traffic is a deterministic reject);
//   - during the rotation's grace window, not-yet-updated devices
//     pinned to the retired version keep verifying against the pinned
//     predecessor (no spurious failures while the fleet flashes);
//   - past grace, the retired version is a distinct stale-image
//     reject — never a spurious pass — and a rejected report never
//     consumes its counter, so laggards that finish flashing attest
//     clean with the very counters that were refused;
//   - steady-state multi-image verification stays within a small
//     factor of the single-image daemon (both paths are measured and
//     the ratio recorded; the benchmark gate in CI pins it ≤1.15x and
//     0 allocs/op).
type E17Config struct {
	// Provers is the fleet size; default 100_000.
	Provers int
	// Classes is the number of device classes (distinct golden
	// images); default 4. Prover i belongs to class i mod Classes.
	Classes int
	// Workers is the ingest concurrency; default GOMAXPROCS.
	Workers int
	// GhostEvery sends one unknown-image report per n-th index from a
	// fresh prover; default 1000. ReplayEvery replays the round-one
	// bundle of every n-th prover; default 1000.
	GhostEvery  int
	ReplayEvery int
	// Logf, if set, receives phase progress.
	Logf func(format string, args ...any)
}

func (c *E17Config) setDefaults() {
	if c.Provers == 0 {
		c.Provers = 100_000
	}
	if c.Classes == 0 {
		c.Classes = 4
	}
	if c.GhostEvery == 0 {
		c.GhostEvery = 1000
	}
	if c.ReplayEvery == 0 {
		c.ReplayEvery = 1000
	}
}

// e17Grace is the rotation grace window in epochs.
const e17Grace = 1

// E17Result is the heterogeneous-fleet run's outcome.
type E17Result struct {
	Provers  int
	Classes  int
	Workers  int
	Stripes  int
	History  int
	Grace    uint64
	Enrolled int

	// RotatedClass is the class whose image rotated mid-run;
	// DiffBlocks the OTA's changed-block count (out of TotalBlocks).
	RotatedClass string
	DiffBlocks   int
	TotalBlocks  int
	// Laggards is the number of rotated-class devices that attested
	// against the pinned predecessor during grace and were refused
	// once each past grace before catching up.
	Laggards int

	// Reports ingested / accepted / rejected / replays, server-side.
	Sent     uint64
	Accepted uint64
	Rejected uint64
	Replays  uint64
	// StaleRejected / UnknownRejected / ReplaySent break the rejects
	// down by cause (registry probe counters + the deliberate replay
	// volume); CatchupAccepted is the server's accept count across the
	// laggards' post-flash re-submissions of previously-refused
	// counters.
	StaleRejected   uint64
	UnknownRejected uint64
	ReplaySent      uint64
	CatchupAccepted uint64

	// WallNS covers the two full collection rounds (enrollment through
	// grace); VerPerSec is accepted verifications over that window.
	WallNS    int64
	VerPerSec float64

	// MultiNSPerReport / SingleNSPerReport time one steady-state
	// round through the multi-image registry vs a single-image control
	// daemon at identical volume; Ratio is multi over single.
	MultiNSPerReport  float64
	SingleNSPerReport float64
	Ratio             float64

	// CheckpointBytes is the encoded v4 checkpoint; ImageRecords the
	// number of non-default bindings it carries.
	CheckpointBytes int
	ImageRecords    int
}

// e17ClassNames gives the first classes evocative names; past four
// they are numbered.
var e17ClassNames = []string{"sensor", "actuator", "gateway", "camera"}

func e17ClassName(c int) string {
	if c < len(e17ClassNames) {
		return e17ClassNames[c]
	}
	return fmt.Sprintf("class%d", c)
}

// E17HeterogeneousFleet runs the experiment.
func E17HeterogeneousFleet(cfg E17Config) (*E17Result, error) {
	cfg.setDefaults()
	const h = fleetHistory

	// Registry: one golden per class, golden-backed so rotation takes
	// the derived digest-cache path. Class 0 is the fleet default.
	goldens := make([]*mem.Golden, cfg.Classes)
	// KeepEpochs matches the daemon's single-image default: a
	// too-small epoch cache would thrash on multi-counter histories
	// and recompute the expected tag per report.
	set := verifier.NewImageSet(verifier.ImageSetConfig{Grace: e17Grace, KeepEpochs: 64})
	for c := 0; c < cfg.Classes; c++ {
		goldens[c] = mem.NewGolden(goldenImage(c), fleetBlockSize, 1)
		if _, err := set.Add(e17ClassName(c), verifier.ImageOfGolden(goldens[c])); err != nil {
			return nil, err
		}
	}
	srv, err := serveLocal(rattd.Config{Images: set})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	f := newFleet(cfg.Provers, cfg.Workers, cfg.Logf)

	rot := 1 % cfg.Classes // the class that rotates mid-run
	res := &E17Result{
		Provers: cfg.Provers, Classes: cfg.Classes, Workers: f.workers,
		Stripes: srv.Stripes(), History: fleetHistory, Grace: e17Grace,
		RotatedClass: e17ClassName(rot),
		TotalBlocks:  goldens[rot].NumBlocks(),
	}

	// One template bundle per class: every same-class report for a
	// given counter is byte-identical.
	round1 := make([][]core.Report, cfg.Classes)
	for c := range round1 {
		if round1[c], err = bundle(goldens[c].Bytes(), 1, h); err != nil {
			return nil, err
		}
	}

	classOf := func(i int) int { return i % cfg.Classes }
	// Laggards are the odd half of the rotated class: they keep
	// running the retired image through the grace window.
	isLaggard := func(i int) bool { return classOf(i) == rot && (i/cfg.Classes)%2 == 1 }
	nLag := 0
	for i := 0; i < cfg.Provers; i++ {
		if isLaggard(i) {
			nLag++
		}
	}
	res.Laggards = nLag

	start := time.Now()
	// Round 1: every prover announces its class and attests.
	f.each(func(i int) {
		srv.IngestImage(f.names[i], transport.KindCollection, e17ClassName(classOf(i)), round1[classOf(i)])
	})
	res.Sent += uint64(cfg.Provers) * h
	f.logf("e17: round 1 done: %d provers across %d classes", srv.Enrolled(), cfg.Classes)

	// The OTA: one block of the rotated class's image changes, and the
	// registry rotates live — predecessor pinned for the grace window.
	v2bytes := append([]byte(nil), goldens[rot].Bytes()...)
	blk := 2 % goldens[rot].NumBlocks()
	for j := blk * fleetBlockSize; j < (blk+1)*fleetBlockSize && j < len(v2bytes); j++ {
		v2bytes[j] ^= 0xA5
	}
	v2 := mem.NewGolden(v2bytes, fleetBlockSize, 1)
	res.DiffBlocks = len(v2.DiffBlocks(goldens[rot]))
	rotID, err := set.Rotate(e17ClassName(rot), verifier.ImageOfGolden(v2))
	if err != nil {
		return nil, err
	}
	f.logf("e17: rotated %s (v%d, %d/%d blocks changed)",
		e17ClassName(rot), rotID.Version, res.DiffBlocks, res.TotalBlocks)
	// current is each class's image after the rotation.
	current := func(c int) []byte {
		if c == rot {
			return v2bytes
		}
		return goldens[c].Bytes()
	}

	// Round 2, inside grace: updated devices attest the new version,
	// laggards pin the retired one — both verify, zero failures.
	oldPinned := fmt.Sprintf("%s@v1", e17ClassName(rot))
	newPinned := fmt.Sprintf("%s@v%d", e17ClassName(rot), rotID.Version)
	round2 := make([][]core.Report, cfg.Classes)
	for c := range round2 {
		if round2[c], err = bundle(current(c), h+1, 2*h); err != nil {
			return nil, err
		}
	}
	lagRound2, err := bundle(goldens[rot].Bytes(), h+1, 2*h)
	if err != nil {
		return nil, err
	}
	f.each(func(i int) {
		c := classOf(i)
		switch {
		case isLaggard(i):
			srv.IngestImage(f.names[i], transport.KindCollection, oldPinned, lagRound2)
		case c == rot:
			srv.IngestImage(f.names[i], transport.KindCollection, newPinned, round2[c])
		default:
			srv.Ingest(f.names[i], transport.KindCollection, round2[c])
		}
	})
	res.Sent += uint64(cfg.Provers) * h
	res.WallNS = time.Since(start).Nanoseconds()
	inGrace := srv.Counts()
	if inGrace.Rejected != 0 {
		return res, fmt.Errorf("e17: %d spurious failures during grace", inGrace.Rejected)
	}
	f.logf("e17: round 2 done inside grace: accepted %d, rejected %d", inGrace.Accepted, inGrace.Rejected)

	// Past grace: the pinned predecessor is pruned.
	for e := uint64(0); e < e17Grace+2; e++ {
		set.AdvanceEpoch()
	}

	// Stale phase: laggards still on the retired image are refused
	// with the distinct stale outcome — one reject per report, their
	// counters left unconsumed.
	lagStale, err := bundle(goldens[rot].Bytes(), 2*h+1, 2*h+1)
	if err != nil {
		return nil, err
	}
	f.each(func(i int) {
		if isLaggard(i) {
			srv.IngestImage(f.names[i], transport.KindCollection, oldPinned, lagStale)
		}
	})
	res.Sent += uint64(nLag)

	// Ghost phase: fresh provers claim an image the registry has never
	// seen — the distinct unknown-image outcome.
	nGhost := (cfg.Provers + cfg.GhostEvery - 1) / cfg.GhostEvery
	ghost, err := bundle(goldens[0].Bytes(), 1, 1)
	if err != nil {
		return nil, err
	}
	f.each(func(i int) {
		if i%cfg.GhostEvery == 0 {
			srv.IngestImage(fmt.Sprintf("ghost%07d", i), transport.KindCollection, "ghost", ghost)
		}
	})
	res.Sent += uint64(nGhost)

	// Catch-up: laggards finish flashing and re-submit the very
	// counters that were refused — a rejected report never consumes
	// freshness, so these now verify clean against the new version.
	lagDone, err := bundle(v2bytes, 2*h+1, 2*h+1)
	if err != nil {
		return nil, err
	}
	preCatchup := srv.Counts()
	f.each(func(i int) {
		if isLaggard(i) {
			srv.IngestImage(f.names[i], transport.KindCollection, newPinned, lagDone)
		}
	})
	res.Sent += uint64(nLag)
	res.CatchupAccepted = srv.Counts().Accepted - preCatchup.Accepted
	if res.CatchupAccepted != uint64(nLag) {
		return res, fmt.Errorf("e17: catch-up accepted %d, want %d laggards", res.CatchupAccepted, nLag)
	}

	// Replay phase: a sample resubmits its round-one bundle; every
	// report must be rejected, each counted as a replay exactly once.
	preReplay := srv.Counts()
	f.each(func(i int) {
		if i%cfg.ReplayEvery == 0 {
			srv.IngestImage(f.names[i], transport.KindCollection, e17ClassName(classOf(i)), round1[classOf(i)])
		}
	})
	nReplay := uint64((cfg.Provers+cfg.ReplayEvery-1)/cfg.ReplayEvery) * h
	res.ReplaySent = nReplay
	res.Sent += nReplay

	res.VerPerSec = float64(inGrace.Accepted) / (float64(res.WallNS) / 1e9)

	// Steady-state ratio: one more full round through the multi-image
	// registry vs the same volume through a single-image control
	// daemon. The benchmark gate pins this more tightly (and at
	// 0 allocs/op); here it is recorded for the experiment's record.
	round3 := make([][]core.Report, cfg.Classes)
	for c := range round3 {
		if round3[c], err = bundle(current(c), 2*h+2, 3*h+1); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	f.each(func(i int) {
		srv.IngestImage(f.names[i], transport.KindCollection, e17ClassName(classOf(i)), round3[classOf(i)])
	})
	multiNS := time.Since(t0).Nanoseconds()
	res.Sent += uint64(cfg.Provers) * h
	res.MultiNSPerReport = float64(multiNS) / float64(cfg.Provers*h)

	counts := srv.Counts()
	st := set.Stats()
	res.Accepted = counts.Accepted
	res.Rejected = counts.Rejected
	res.Replays = counts.Replays
	res.StaleRejected = st.StaleProbes
	res.UnknownRejected = st.UnknownProbes
	res.Enrolled = srv.Enrolled()

	ctl, err := serveLocal(rattd.Config{Ref: goldens[0].Bytes()})
	if err != nil {
		return res, err
	}
	defer ctl.Close()
	t0 = time.Now()
	f.each(func(i int) {
		ctl.Ingest(f.names[i], transport.KindCollection, round1[0])
	})
	singleNS := time.Since(t0).Nanoseconds()
	res.SingleNSPerReport = float64(singleNS) / float64(cfg.Provers*h)
	if res.SingleNSPerReport > 0 {
		res.Ratio = res.MultiNSPerReport / res.SingleNSPerReport
	}
	if got := ctl.Counts(); got.Accepted != uint64(cfg.Provers)*h {
		return res, fmt.Errorf("e17: control daemon accepted %d, want %d", got.Accepted, uint64(cfg.Provers)*h)
	}

	// Checkpoint: the v4 file carries every non-default binding.
	cp := srv.Checkpoint()
	res.ImageRecords = len(cp.Images)
	cpStats, err := srv.WriteCheckpoint(io.Discard, rattd.SnapshotOptions{})
	if err != nil {
		return res, fmt.Errorf("e17: checkpoint: %v", err)
	}
	res.CheckpointBytes = int(cpStats.Bytes)

	// Internal consistency: conservation, exactly-once, and the
	// zero-spurious contract — every reject is a stale laggard, a
	// ghost or a deliberate replay.
	err = fleetTally{
		sent: res.Sent, accepted: res.Accepted, rejected: res.Rejected,
		wantAccepted: uint64(cfg.Provers)*3*h + uint64(nLag),
		replaySent:   nReplay, replayed: counts.Replays - preReplay.Replays,
		enrolled: res.Enrolled, wantEnrolled: cfg.Provers + nGhost,
	}.check()
	if err != nil {
		return res, fmt.Errorf("e17: %v", err)
	}
	if res.StaleRejected != uint64(nLag) {
		return res, fmt.Errorf("e17: stale rejects %d, want %d", res.StaleRejected, nLag)
	}
	if res.UnknownRejected != uint64(nGhost) {
		return res, fmt.Errorf("e17: unknown-image rejects %d, want %d", res.UnknownRejected, nGhost)
	}
	return res, nil
}

// RenderE17 formats the run as text.
func RenderE17(r *E17Result) string {
	var b strings.Builder
	b.WriteString("E17: heterogeneous fleet — image-registry verification with live golden rotation\n")
	fmt.Fprintf(&b, "provers %d  classes %d  workers %d  stripes %d  history %d  grace %d\n",
		r.Provers, r.Classes, r.Workers, r.Stripes, r.History, r.Grace)
	fmt.Fprintf(&b, "rotation: %s, %d/%d blocks changed; %d laggards held the retired version through grace\n",
		r.RotatedClass, r.DiffBlocks, r.TotalBlocks, r.Laggards)
	fmt.Fprintf(&b, "sent %d  accepted %d  rejected %d  (stale %d, unknown %d, replays %d)  enrolled %d\n",
		r.Sent, r.Accepted, r.Rejected, r.StaleRejected, r.UnknownRejected, r.Replays, r.Enrolled)
	fmt.Fprintf(&b, "zero spurious outcomes: grace accepts %d laggard histories, past-grace refuses each once,\n"+
		"and all %d refused counters verified clean after the flash (freshness unconsumed)\n",
		r.Laggards, r.CatchupAccepted)
	fmt.Fprintf(&b, "wall %.1fs  %.0f verified/s\n", float64(r.WallNS)/1e9, r.VerPerSec)
	fmt.Fprintf(&b, "steady state: multi-image %.0f ns/report vs single-image %.0f ns/report (%.2fx)\n",
		r.MultiNSPerReport, r.SingleNSPerReport, r.Ratio)
	fmt.Fprintf(&b, "checkpoint: %d bytes carrying %d image bindings (v4)\n", r.CheckpointBytes, r.ImageRecords)
	return b.String()
}

// E17CSV writes the run machine-readably.
func E17CSV(w io.Writer, r *E17Result) error {
	if _, err := fmt.Fprintln(w, "provers,classes,workers,stripes,history,grace,laggards,diff_blocks,total_blocks,sent,accepted,rejected,stale,unknown,replays,catchup,enrolled,wall_ns,ver_per_sec,multi_ns_per_report,single_ns_per_report,ratio,checkpoint_bytes,image_records"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%.1f,%.3f,%d,%d\n",
		r.Provers, r.Classes, r.Workers, r.Stripes, r.History, r.Grace, r.Laggards,
		r.DiffBlocks, r.TotalBlocks, r.Sent, r.Accepted, r.Rejected, r.StaleRejected,
		r.UnknownRejected, r.Replays, r.CatchupAccepted, r.Enrolled, r.WallNS, r.VerPerSec,
		r.MultiNSPerReport, r.SingleNSPerReport, r.Ratio, r.CheckpointBytes, r.ImageRecords)
	return err
}
