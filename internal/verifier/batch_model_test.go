package verifier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

// batchModel is the reference semantics of Batch's expected-tag cache:
// a map from nonce epoch to the groups computed in it, evicting the
// oldest epoch once more than KeepEpochs (at least one) are live.
type batchModel struct {
	keep     int
	epochs   map[string]map[groupKey]bool
	order    []string
	computed uint64
}

func newBatchModel(keepEpochs int) *batchModel {
	return &batchModel{keep: max(keepEpochs, 1), epochs: map[string]map[groupKey]bool{}}
}

// verify records one report of group k in epoch nonce and reports
// whether its expected tag was cached.
func (m *batchModel) verify(nonce string, k groupKey) (hit bool) {
	if m.epochs[nonce][k] {
		return true
	}
	m.computed++
	g, ok := m.epochs[nonce]
	if !ok {
		g = map[groupKey]bool{}
		m.epochs[nonce] = g
		m.order = append(m.order, nonce)
	}
	g[k] = true
	for len(m.order) > m.keep {
		delete(m.epochs, m.order[0])
		m.order = m.order[1:]
	}
	return false
}

// modelFleet is a small batch world with ground-truth tags: reports
// are built directly, honest ones carrying the expected tag and
// tampered ones a tag with one bit flipped.
type modelFleet struct {
	g      *mem.Golden
	keys   [][]byte
	truth  map[string][]byte // fmt key of (key, nonce, round, shuffled, incremental)
	oracle *Batch
}

func newModelFleet() *modelFleet {
	g := mem.RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(8, 8)))
	return &modelFleet{
		g:      g,
		keys:   [][]byte{[]byte("fleet-key-a"), []byte("fleet-key-b")},
		truth:  map[string][]byte{},
		oracle: NewBatch(suite.SHA256, ImageOfGolden(g)),
	}
}

// report builds a report of group gi (key × round × shuffled ×
// incremental, 16 groups) in epoch nonce, returning it with its key,
// the shuffled flag and the model's group key.
func (f *modelFleet) report(t testing.TB, nonce []byte, gi int, honest bool) (*core.Report, []byte, bool, groupKey) {
	t.Helper()
	key := f.keys[gi&1]
	round, shuffled, incremental := gi>>1&1, gi>>2&1 == 1, gi>>3&1 == 1
	r := &core.Report{Nonce: nonce, Round: round, Incremental: incremental,
		BlockSize: f.g.BlockSize(), NumBlocks: f.g.NumBlocks()}
	id := fmt.Sprintf("%s/%x/%d/%v/%v", key, nonce, round, shuffled, incremental)
	exp, ok := f.truth[id]
	if !ok {
		var err error
		if exp, err = f.oracle.compute(key, r, shuffled); err != nil {
			t.Fatal(err)
		}
		f.truth[id] = exp
	}
	r.Tag = bytes.Clone(exp)
	if !honest {
		r.Tag[0] ^= 1
	}
	return r, key, shuffled, groupKey{key: string(key), round: round, shuffled: shuffled, incremental: incremental}
}

// tableCoverage records which layouts a model run reached.
type tableCoverage struct {
	wrapped, shifted bool
	slot             map[string]uint64 // epoch → slot after the previous step
}

// checkTable asserts that b's epoch table holds exactly the model's
// epochs and groups, each reachable from its home slot without
// crossing an empty one, and notes wrapped chains and moved entries.
func checkTable(t *testing.T, b *Batch, m *batchModel, cov *tableCoverage) {
	t.Helper()
	tab := b.table.Load()
	seen := map[string]uint64{}
	for i := range tab.slots {
		e := tab.slots[i].Load()
		if e == nil {
			continue
		}
		home := e.hash & tab.mask
		for j := home; j != uint64(i); j = (j + 1) & tab.mask {
			if tab.slots[j].Load() == nil {
				t.Fatalf("epoch %q in slot %d unreachable from home %d: slot %d empty", e.nonce, i, home, j)
			}
		}
		if uint64(i) < home {
			cov.wrapped = true
		}
		if prev, ok := cov.slot[e.nonce]; ok && prev != uint64(i) {
			cov.shifted = true
		}
		groups := m.epochs[e.nonce]
		if len(groups) != len(e.tags) {
			t.Fatalf("epoch %q: table has %d groups, model %d", e.nonce, len(e.tags), len(groups))
		}
		for _, gt := range e.tags {
			if !groups[gt.k] {
				t.Fatalf("epoch %q: table holds group %+v the model does not", e.nonce, gt.k)
			}
		}
		seen[e.nonce] = uint64(i)
	}
	if len(seen) != len(m.epochs) {
		t.Fatalf("table holds %d epochs, model %d", len(seen), len(m.epochs))
	}
	cov.slot = seen
}

// TestBatchMatchesModel drives Batch and the reference model with the
// same seeded serial streams of epochs and groups — including new
// groups joining live epochs, and tables of 2–8 slots where probe
// chains wrap and evictions shift entries — and requires identical
// verdicts, identical Computed counts and an identical cache content
// after every report.
func TestBatchMatchesModel(t *testing.T) {
	f := newModelFleet()
	var cov tableCoverage
	for _, keep := range []int{0, 1, 2, 3, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(keep)))
			b := NewBatch(suite.SHA256, ImageOfGolden(f.g))
			b.KeepEpochs = keep
			m := newBatchModel(keep)
			pool := 2*max(keep, 1) + 1
			cov.slot = nil
			for step := 0; step < 1500; step++ {
				nonce := []byte(fmt.Sprintf("epoch-%d", rng.IntN(pool)))
				gi := rng.IntN(1 + rng.IntN(16)) // skewed: low groups recur
				honest := rng.IntN(4) != 0
				r, key, shuffled, k := f.report(t, nonce, gi, honest)
				m.verify(string(nonce), k)
				ok, err := b.Verify(key, r, shuffled)
				if err != nil {
					t.Fatal(err)
				}
				if ok != honest {
					t.Fatalf("keep=%d seed=%d step %d: verdict %v, want %v", keep, seed, step, ok, honest)
				}
				if s := b.Stats(); s.Computed != m.computed || s.Reports != uint64(step+1) {
					t.Fatalf("keep=%d seed=%d step %d: stats %+v, model computed %d", keep, seed, step, s, m.computed)
				}
				checkTable(t, b, m, &cov)
			}
		}
	}
	if !cov.wrapped || !cov.shifted {
		t.Fatalf("streams never reached a wrapped probe chain (%v) or a shifted entry (%v)", cov.wrapped, cov.shifted)
	}
}

// TestBatchConcurrentVerdicts hammers one Batch with a small
// KeepEpochs from many goroutines verifying interleaved epochs of
// honest and tampered reports, so hits race inserts, group additions
// and evicting shifts. Every verdict must equal the ground truth.
func TestBatchConcurrentVerdicts(t *testing.T) {
	f := newModelFleet()
	type item struct {
		r        *core.Report
		key      []byte
		shuffled bool
		honest   bool
	}
	var items []item
	for e := 0; e < 6; e++ {
		for gi := 0; gi < 4; gi++ {
			for _, honest := range []bool{true, false} {
				r, key, shuffled, _ := f.report(t, []byte(fmt.Sprintf("epoch-%d", e)), gi, honest)
				items = append(items, item{r, key, shuffled, honest})
			}
		}
	}
	b := NewBatch(suite.SHA256, ImageOfGolden(f.g))
	b.KeepEpochs = 2
	// At least two workers, so -cpu 1 still interleaves them.
	workers := max(runtime.GOMAXPROCS(0), 2)
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < perWorker; i++ {
				// Each worker mixes two adjacent epochs and drifts
				// through them at its own offset, so more epochs are
				// live at once than the cache keeps.
				e := (i/64 + w + rng.IntN(2)) % 6
				it := items[e*8+rng.IntN(8)]
				ok, err := b.Verify(it.key, it.r, it.shuffled)
				if err != nil {
					t.Error(err)
					return
				}
				if ok != it.honest {
					t.Errorf("worker %d report %d: verdict %v, want %v", w, i, ok, it.honest)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := b.Stats()
	if s.Reports != uint64(workers*perWorker) {
		t.Fatalf("Reports = %d, want %d", s.Reports, workers*perWorker)
	}
	if s.Computed == 0 || s.Computed > s.Reports {
		t.Fatalf("Computed = %d with %d reports", s.Computed, s.Reports)
	}
}

// missBatch returns a batch with its KeepEpochs ring already full and
// a function that verifies one report under a fresh nonce, so every
// call misses, computes, inserts and evicts.
func missBatch(tb testing.TB, keep int) (*Batch, func()) {
	tb.Helper()
	f := newModelFleet()
	b := NewBatch(suite.SHA256, ImageOfGolden(f.g))
	b.KeepEpochs = keep
	nonce := make([]byte, 8)
	r := &core.Report{Nonce: nonce, Tag: make([]byte, 32), BlockSize: f.g.BlockSize(), NumBlocks: f.g.NumBlocks()}
	var ctr uint64
	miss := func() {
		ctr++
		binary.BigEndian.PutUint64(nonce, ctr)
		if _, err := b.Verify(f.keys[0], r, false); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i <= keep; i++ {
		miss()
	}
	return b, miss
}

// TestBatchMissAllocs pins O(1) publication: a cache miss allocates
// the same small constant whether one epoch or thousands stay cached.
func TestBatchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts; the gate runs in the non-race suite")
	}
	const maxAllocs = 8
	var want float64 = -1
	for _, keep := range []int{1, 64, 4096} {
		b, miss := missBatch(t, keep)
		before := b.Stats().Computed
		got := testing.AllocsPerRun(200, miss)
		if n := b.Stats().Computed - before; n != 201 {
			t.Fatalf("keep=%d: %d of 201 runs computed a tag; every run must miss", keep, n)
		}
		t.Logf("KeepEpochs=%d: %.0f allocs per miss", keep, got)
		if got > maxAllocs {
			t.Fatalf("KeepEpochs=%d: %.0f allocs per miss, want <= %d", keep, got, maxAllocs)
		}
		if want >= 0 && got != want {
			t.Fatalf("KeepEpochs=%d: %.0f allocs per miss, but %.0f at KeepEpochs=1", keep, got, want)
		}
		want = got
	}
}

func BenchmarkBatch_VerifyMiss(b *testing.B) {
	for _, keep := range []int{64, 4096} {
		b.Run(fmt.Sprintf("keep=%d", keep), func(b *testing.B) {
			_, miss := missBatch(b, keep)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss()
			}
		})
	}
}
