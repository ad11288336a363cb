package experiments

import (
	"fmt"
	"runtime"

	"saferatt/internal/core"
	"saferatt/internal/parallel"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// Fleet geometry shared by E14–E17: every prover holds a 4 KiB golden
// image measured in 256-byte blocks, generated from seed 7 (E17's
// device class c uses seed 7+c). E15 and E17 bundle four ERASMUS
// self-measurements per collection round.
const (
	fleetMemSize   = 4 << 10
	fleetBlockSize = 256
	fleetSeed      = 7
	fleetHistory   = 4
)

// fleet is the in-process harness behind E15–E17: a table of prover
// names sharing one key, a worker pool that ingests on their behalf,
// and the caller's progress logger.
type fleet struct {
	names   []string
	workers int
	logf    func(format string, args ...any)
}

// newFleet names provers prv0000000.. and resolves a zero worker
// count to GOMAXPROCS; a nil logf discards progress.
func newFleet(provers, workers int, logf func(format string, args ...any)) *fleet {
	names := make([]string, provers)
	for i := range names {
		names[i] = fmt.Sprintf("prv%07d", i)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &fleet{names: names, workers: workers, logf: logf}
}

// each runs fn(i) for every prover index across the worker pool.
func (f *fleet) each(fn func(i int)) { parallel.For(f.workers, len(f.names), fn) }

// goldenImage is the fleet's golden image for device class c.
func goldenImage(c int) []byte {
	return rattd.GoldenImage(fleetSeed+uint64(c), fleetMemSize, fleetBlockSize)
}

// serveLocal starts an in-process daemon over transport.Local at the
// fleet's block size.
func serveLocal(cfg rattd.Config) (*rattd.Server, error) {
	cfg.BlockSize = fleetBlockSize
	return rattd.Serve(transport.NewLocal(), cfg)
}

// bundle returns the ERASMUS self-measurements for counters lo..hi of
// a template prover holding image. The fleet shares one key, so for a
// given counter every prover's report is byte-identical: one
// measurement serves the whole fleet (the same amortization the batch
// verifier performs on the receive side).
func bundle(image []byte, lo, hi uint64) ([]core.Report, error) {
	tmpl, err := rattd.NewProver("tmpl", rattd.DefaultKey, image, fleetBlockSize)
	if err != nil {
		return nil, err
	}
	var rs []core.Report
	for c := lo; c <= hi; c++ {
		r, err := tmpl.SelfMeasure(c)
		if err != nil {
			return nil, err
		}
		rs = append(rs, *r)
	}
	return rs, nil
}

// fleetTally holds what a server counted beside what the experiment
// drove into it.
type fleetTally struct {
	sent, accepted, rejected uint64
	wantAccepted             uint64
	// replaySent is the number of deliberately replayed reports;
	// replayed the server's replay count across that phase.
	replaySent, replayed   uint64
	enrolled, wantEnrolled int
}

// check returns an error unless every report sent was accepted or
// rejected exactly once, the accepted count is the expected one, each
// deliberate replay was rejected as a replay exactly once, and the
// fleet is fully enrolled.
func (t fleetTally) check() error {
	switch {
	case t.accepted != t.wantAccepted:
		return fmt.Errorf("accepted %d, want %d (verification failures)", t.accepted, t.wantAccepted)
	case t.accepted+t.rejected != t.sent:
		return fmt.Errorf("counts not conserved: %d+%d != %d", t.accepted, t.rejected, t.sent)
	case t.replayed != t.replaySent:
		return fmt.Errorf("replay sample rejected %d times, want exactly %d", t.replayed, t.replaySent)
	case t.enrolled != t.wantEnrolled:
		return fmt.Errorf("enrolled %d, want %d", t.enrolled, t.wantEnrolled)
	}
	return nil
}

// settledHeap returns live heap bytes after a full GC — the stable
// measure of retained server state.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
