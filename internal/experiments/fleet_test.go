package experiments

import "testing"

// TestFleetInvariantsReject feeds the shared fleet check one
// consistent tally and one row per invariant it guards, broken by the
// smallest amount: each broken row must fail, the consistent one pass.
func TestFleetInvariantsReject(t *testing.T) {
	ok := fleetTally{
		sent: 1010, accepted: 1000, rejected: 10,
		wantAccepted: 1000,
		replaySent:   8, replayed: 8,
		enrolled: 250, wantEnrolled: 250,
	}
	cases := []struct {
		name   string
		edit   func(*fleetTally)
		wantOK bool
	}{
		{"consistent", func(*fleetTally) {}, true},
		{"report lost", func(t *fleetTally) { t.sent++ }, false},
		{"report counted twice", func(t *fleetTally) { t.rejected++ }, false},
		{"verification failure", func(t *fleetTally) { t.accepted--; t.rejected++ }, false},
		{"replay missed", func(t *fleetTally) { t.replayed-- }, false},
		{"replay counted twice", func(t *fleetTally) { t.replayed++ }, false},
		{"prover not enrolled", func(t *fleetTally) { t.enrolled-- }, false},
		{"stray enrollment", func(t *fleetTally) { t.enrolled++ }, false},
	}
	for _, c := range cases {
		tally := ok
		c.edit(&tally)
		err := tally.check()
		if c.wantOK && err != nil {
			t.Errorf("%s: unexpected error: %v", c.name, err)
		}
		if !c.wantOK && err == nil {
			t.Errorf("%s: %+v passed the check", c.name, tally)
		}
	}
}
