package verifier

import (
	"bytes"
	"crypto/hmac"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/inccache"
	"saferatt/internal/suite"
)

// Batch amortizes verification across the reports of one collection
// round. The expected measurement over a golden image is a pure
// function of (attestation key, nonce, round, traversal order, data
// path): in a fleet of identical devices every clean report in a round
// carries the SAME expected tag, so the verifier can compute it once
// per group and reduce each report to a constant-time tag comparison —
// O(image) work per round instead of per device.
//
// Batch is MAC-mode only (shared symmetric key, the paper's low-end
// device setting). Reports with a restricted region or reported data
// blocks vary per device and are not batchable; callers route them to
// the ordinary per-report path (see swarm.Collector.Judge).
//
// Expected tags are cached per nonce epoch in a fixed open-addressed
// table of atomic pointers to immutable entries: Verify is safe for
// any number of concurrent callers, and the steady-state hit path —
// the one a daemon's dispatch workers hammer — is one hash probe with
// no lock and no allocation. Inserts (one per new (epoch, group), i.e.
// once per fleet-wide expected-tag computation) run under a writer
// mutex and touch O(1) slots: a new epoch takes one slot, a new group
// replaces its epoch's entry, and eviction is a backward-shift delete
// of the oldest epoch; concurrent misses on the same group may compute
// the tag redundantly, which is harmless and rare. Eviction is
// insertion-ordered and bounded by KeepEpochs (≤1 keeps the
// single-epoch behavior).
type Batch struct {
	// KeepEpochs bounds how many nonce epochs of expected tags stay
	// cached at once. Zero or one keeps the single-epoch behavior.
	// Set it before the first Verify: the first insert sizes the table
	// for it (up to four 8 B slots and one 16 B ring entry per epoch).
	KeepEpochs int

	hash      suite.HashID
	ref       []byte
	blockSize int
	nblocks   int

	table  atomic.Pointer[epochTable]          // allocated on first publish
	golden atomic.Pointer[inccache.ImageCache] // lazily built for incremental reports
	key    atomic.Pointer[keyMemo]             // []byte→string memo of the fleet key
	mu     sync.Mutex                          // serializes publication

	reports  atomic.Uint64
	computed atomic.Uint64
}

// epochTable is the expected-tag cache: a linear-probing hash table
// keyed by nonce epoch, sized once to a power of two at least twice
// KeepEpochs so probe chains stay short and an empty slot always ends
// them. Readers load slots with no lock; the writer (under Batch.mu)
// swaps whole entries, never mutating one that is published. A reader
// racing a delete may miss an entry that is being shifted — only a
// recompute, since the cache is advisory — but never sees a wrong tag,
// because every entry carries its full nonce and group keys.
type epochTable struct {
	seed  maphash.Seed
	slots []atomic.Pointer[epochEntry]
	mask  uint64

	// Written only under Batch.mu: the live epochs in insertion order,
	// a ring of len KeepEpochs (at least 1).
	fifo       []string
	head, live int
}

// epochEntry is one epoch's immutable slot content.
type epochEntry struct {
	hash  uint64 // maphash of nonce, fixing the home slot
	nonce string
	tags  []groupTag
}

type groupTag struct {
	k   groupKey
	tag []byte
}

func newEpochTable(keep int) *epochTable {
	n := 2
	for n < 2*keep {
		n *= 2
	}
	return &epochTable{
		seed:  maphash.MakeSeed(),
		slots: make([]atomic.Pointer[epochEntry], n),
		mask:  uint64(n - 1),
		fifo:  make([]string, keep),
	}
}

// lookup returns the cached tag for (nonce, k), or nil. The probe is
// bounded by the table size, so it ends even if concurrent shifts keep
// every slot it visits occupied.
func (t *epochTable) lookup(nonce []byte, k groupKey) []byte {
	h := maphash.Bytes(t.seed, nonce)
	for i, n := h&t.mask, 0; n < len(t.slots); i, n = (i+1)&t.mask, n+1 {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == h && e.nonce == string(nonce) {
			return e.tag(k)
		}
	}
	return nil
}

func (e *epochEntry) tag(k groupKey) []byte {
	for i := range e.tags {
		if e.tags[i].k == k {
			return e.tags[i].tag
		}
	}
	return nil
}

// find returns the slot holding epoch (hashed h), or the empty slot
// ending its probe chain with a nil entry. Writer side only: with at
// most KeepEpochs ≤ len/2 epochs live, an empty slot always exists.
func (t *epochTable) find(h uint64, epoch string) (uint64, *epochEntry) {
	i := h & t.mask
	for {
		e := t.slots[i].Load()
		if e == nil || (e.hash == h && e.nonce == epoch) {
			return i, e
		}
		i = (i + 1) & t.mask
	}
}

// remove deletes the epoch in slot i by backward shift: each later
// entry of the probe run whose home slot does not lie cyclically in
// (i, j] moves into the hole, so every remaining entry stays reachable
// from its home without crossing an empty slot.
func (t *epochTable) remove(i uint64) {
	for j := (i + 1) & t.mask; ; j = (j + 1) & t.mask {
		e := t.slots[j].Load()
		if e == nil {
			break
		}
		if home := e.hash & t.mask; (j-home)&t.mask >= (j-i)&t.mask {
			t.slots[i].Store(e)
			i = j
		}
	}
	t.slots[i].Store(nil)
}

// keyMemo memoizes the []byte→string conversion of the attestation
// key: a fleet shares one key, so the steady state is a bytes.Equal
// hit with zero allocations. The memo owns its copy — Verify is called
// with report views aliasing transport buffers, and nothing here may
// retain caller memory.
type keyMemo struct {
	str string
	b   []byte
}

type groupKey struct {
	key         string // attestation key (fleet devices usually share one)
	round       int
	shuffled    bool
	incremental bool
}

// BatchStats counts amortization effectiveness.
type BatchStats struct {
	Reports  uint64 // reports verified through the batch
	Computed uint64 // expected tags actually computed (one per group)
}

// NewBatch builds a batch verifier over an image handle — the single
// constructor the ImageSet registry plugs into. A golden-backed image
// (ImageOfGolden) wires the incremental path to the process-wide
// golden digest cache, so verifier and devices share one set of
// per-block digests; a raw-bytes image (ImageOf) builds a private
// cache lazily.
func NewBatch(hash suite.HashID, img Image) *Batch {
	if img.IsZero() {
		panic("verifier: NewBatch over a zero Image")
	}
	b := &Batch{
		hash:      hash,
		ref:       img.ref,
		blockSize: img.blockSize,
		nblocks:   img.NumBlocks(),
	}
	if img.golden != nil {
		b.golden.Store(inccache.SharedImage(img.golden, inccache.DigestHash(hash)))
	}
	return b
}

// Verify checks one report against the golden image under the given
// attestation key (used both to derive the traversal order and as the
// MAC key, mirroring the prover). Reports in the same group after the
// first cost one MAC comparison, no hashing, no locks, and no
// allocations. Safe for concurrent use.
func (b *Batch) Verify(key []byte, r *core.Report, shuffled bool) (bool, error) {
	if r.BlockSize != b.blockSize || r.NumBlocks != b.nblocks {
		return false, fmt.Errorf("verifier: geometry mismatch: report %dx%d vs batch %dx%d",
			r.NumBlocks, r.BlockSize, b.nblocks, b.blockSize)
	}
	if r.RegionCount > 0 || r.Data != nil {
		return false, fmt.Errorf("verifier: region/data reports are not batchable")
	}
	km := b.key.Load()
	if km == nil || !bytes.Equal(key, km.b) {
		km = &keyMemo{str: string(key), b: append([]byte(nil), key...)}
		b.key.Store(km)
	}
	k := groupKey{key: km.str, round: r.Round, shuffled: shuffled, incremental: r.Incremental}
	// The probe hashes and compares the nonce bytes in place; the epoch
	// key is only copied to an owned string on a miss.
	if t := b.table.Load(); t != nil {
		if exp := t.lookup(r.Nonce, k); exp != nil {
			b.reports.Add(1)
			return hmac.Equal(exp, r.Tag), nil
		}
	}
	exp, err := b.compute(key, r, shuffled)
	if err != nil {
		return false, err
	}
	b.computed.Add(1)
	b.publish(string(r.Nonce), k, exp)
	b.reports.Add(1)
	return hmac.Equal(exp, r.Tag), nil
}

// publish inserts (epoch, group) → tag in O(1) slot writes: a new
// group replaces its epoch's entry; a new epoch first evicts the
// oldest if KeepEpochs are live, then takes an empty slot. Runs once
// per expected-tag computation — off every hit path.
func (b *Batch) publish(epoch string, k groupKey, exp []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.table.Load()
	if t == nil {
		t = newEpochTable(max(b.KeepEpochs, 1))
		b.table.Store(t)
	}
	h := maphash.String(t.seed, epoch)
	i, e := t.find(h, epoch)
	if e != nil {
		if e.tag(k) == nil {
			tags := append(e.tags[:len(e.tags):len(e.tags)], groupTag{k, exp})
			t.slots[i].Store(&epochEntry{hash: h, nonce: epoch, tags: tags})
		}
		return
	}
	if t.live == len(t.fifo) {
		old := t.fifo[t.head]
		j, _ := t.find(maphash.String(t.seed, old), old)
		t.remove(j)
		t.head = (t.head + 1) % len(t.fifo)
		t.live--
		i, _ = t.find(h, epoch)
	}
	e = &epochEntry{hash: h, nonce: epoch, tags: []groupTag{{k, exp}}}
	t.fifo[(t.head+t.live)%len(t.fifo)] = epoch
	t.live++
	t.slots[i].Store(e)
}

// compute produces the expected tag for a group, streaming golden
// content (or cached golden digests, on the incremental path) through
// pooled MAC state.
func (b *Batch) compute(key []byte, r *core.Report, shuffled bool) ([]byte, error) {
	scheme := suite.Scheme{Hash: b.hash, Key: key}
	sc := orderScratch.Get().(*orderBuf)
	defer orderScratch.Put(sc)
	sc.order = core.AppendOrderRegion(sc.order[:0], key, r.Nonce, r.Round, 0, b.nblocks, shuffled)
	t, err := scheme.AcquireTagger()
	if err != nil {
		return nil, err
	}
	defer scheme.ReleaseTagger(t)
	if r.Incremental {
		g := b.golden.Load()
		if g == nil {
			b.mu.Lock()
			if g = b.golden.Load(); g == nil {
				g = inccache.NewImage(b.ref, b.blockSize, inccache.DigestHash(b.hash))
				b.golden.Store(g)
			}
			b.mu.Unlock()
		}
		if err := core.ExpectedDigestStream(t, g.DigestOK, r.Nonce, r.Round, sc.order); err != nil {
			return nil, err
		}
	} else {
		core.ExpectedStream(t, b.ref, b.blockSize, r.Nonce, r.Round, sc.order)
	}
	return t.Tag()
}

type orderBuf struct{ order []int }

var orderScratch = sync.Pool{New: func() any { return new(orderBuf) }}

// Stats returns a snapshot of amortization counters.
func (b *Batch) Stats() BatchStats {
	return BatchStats{Reports: b.reports.Load(), Computed: b.computed.Load()}
}
