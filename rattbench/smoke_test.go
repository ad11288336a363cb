package main

import (
	"testing"

	"saferatt/internal/rattd"
)

// TestSmoke runs every workload at reduced size, untraced and traced,
// and asserts the correctness checks and the cache property each
// workload was chosen for.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			p, err := newParams(name, 3, 0.3, true, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				o, setups, tr, err := measureRun(p, trace, t.TempDir())
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				for _, c := range o.checks {
					t.Errorf("trace=%v: check failed: %s", trace, c)
				}
				if len(setups) != p.SetupReps || o.attempted == 0 || o.failed != 0 || len(o.win) == 0 {
					t.Errorf("trace=%v: setups %d, attempted %d, failed %d, windows %d",
						trace, len(setups), o.attempted, o.failed, len(o.win))
				}
				reports := float64(o.batch1.Reports - o.batch0.Reports)
				hit := 1 - float64(o.batch1.Computed-o.batch0.Computed)/reports
				switch {
				case p.Miss || p.Smart:
					if hit > 0.05 {
						t.Errorf("hit share %.4f with per-report nonces, want <= 0.05", hit)
					}
				default:
					if hit < 0.99 {
						t.Errorf("hit share %.4f on synchronised counters, want >= 0.99", hit)
					}
				}
				if !trace {
					continue
				}
				lt := tr.analyze()
				if lt.exchanges == 0 || len(lt.handle) == 0 || lt.unmatched > lt.exchanges/10 {
					t.Errorf("trace: %d exchanges, %d handler spans, %d unmatched", lt.exchanges, len(lt.handle), lt.unmatched)
				}
				if _, err := replayLayers(p, rattd.GoldenImage(p.ImageSeed, p.MemSize, p.BlockSize), o.sample); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestServerChecks pins the accounting checks: a clean run passes, a
// rejected honest report or an unrejected replay fails.
func TestServerChecks(t *testing.T) {
	cases := []struct {
		name                      string
		c                         rattd.Counts
		honest, ok, replays, lost int64
		fails                     bool
	}{
		{"clean", rattd.Counts{Accepted: 100, Rejected: 4, Replays: 4}, 100, 100, 4, 0, false},
		{"honest reject", rattd.Counts{Accepted: 99, Rejected: 5, Replays: 4}, 100, 99, 4, 0, true},
		{"replay accepted", rattd.Counts{Accepted: 104, Rejected: 0}, 100, 100, 4, 0, true},
		{"report lost", rattd.Counts{Accepted: 96, Rejected: 4, Replays: 4}, 100, 96, 4, 4, false},
		{"report unseen", rattd.Counts{Accepted: 96, Rejected: 4, Replays: 4}, 100, 96, 4, 0, true},
	}
	for _, tc := range cases {
		o := &outcome{}
		serverChecks(o, tc.c, tc.honest, tc.ok, tc.replays, tc.lost)
		if got := len(o.checks) > 0; got != tc.fails {
			t.Errorf("%s: failed=%v, want %v (%v)", tc.name, got, tc.fails, o.checks)
		}
	}
}
