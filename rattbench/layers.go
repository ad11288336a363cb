package main

import (
	"fmt"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/suite"
	"saferatt/internal/verifier"
)

// layerCosts replays a sample of the workload's own reports through
// single layers, outside the server: the verifier registry's miss
// (first sight of a nonce) and hit paths on a fresh registry, the
// ERASMUS nonce PRF, and the expected-tag computation alone. The
// difference verify_miss - measure is the miss path's bookkeeping
// (cache publication). Values are medians in microseconds.
type layerCosts struct {
	verifyHit, verifyMiss, prf, measure float64
}

// layerReps amortizes clock reads over sub-microsecond calls.
const layerReps = 32

func replayLayers(p *params, image []byte, sample []core.Report) (layerCosts, error) {
	set := verifier.NewImageSet(verifier.ImageSetConfig{Hash: suite.SHA256, KeepEpochs: 64})
	if _, err := set.Add(rattd.DefaultImageName, verifier.ImageOf(image, p.BlockSize)); err != nil {
		return layerCosts{}, err
	}
	key := rattd.DefaultKey
	label := []byte("erasmus-nonce")
	scheme := suite.Scheme{Hash: suite.SHA256, Key: key}
	nblocks := len(image) / p.BlockSize
	var hit, miss, prf, measure []float64
	var nonce []byte
	var order []int
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	for i := range sample {
		r := &sample[i]
		t0 := time.Now()
		ok, err := set.Verify(key, verifier.ImageID{}, r, false)
		miss = append(miss, us(time.Since(t0), 1))
		if err != nil || !ok {
			return layerCosts{}, fmt.Errorf("replayed report %d does not verify: ok=%v err=%v", i, ok, err)
		}
		t0 = time.Now()
		for k := 0; k < layerReps; k++ {
			set.Verify(key, verifier.ImageID{}, r, false)
		}
		hit = append(hit, us(time.Since(t0), layerReps))

		t0 = time.Now()
		for k := 0; k < layerReps; k++ {
			nonce = core.AppendPRF(nonce[:0], key, label, r.Counter)
		}
		prf = append(prf, us(time.Since(t0), layerReps))

		t0 = time.Now()
		tg, err := scheme.AcquireTagger()
		if err != nil {
			return layerCosts{}, err
		}
		order = core.AppendOrderRegion(order[:0], key, r.Nonce, r.Round, 0, nblocks, false)
		core.ExpectedStream(tg, image, p.BlockSize, r.Nonce, r.Round, order)
		_, err = tg.Tag()
		scheme.ReleaseTagger(tg)
		measure = append(measure, us(time.Since(t0), 1))
		if err != nil {
			return layerCosts{}, err
		}
	}
	return layerCosts{verifyHit: median(hit), verifyMiss: median(miss), prf: median(prf), measure: median(measure)}, nil
}
