package main

import "testing"

func TestJudge(t *testing.T) {
	base := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10, 10.1}
	shift := func(d float64, except ...int) []float64 {
		head := make([]float64, len(base))
		for i, b := range base {
			head[i] = b + d
		}
		for _, i := range except {
			head[i] = base[i] - d
		}
		return head
	}
	for _, tc := range []struct {
		name        string
		head        []float64
		lowerBetter bool
		won         int
		holds       bool
	}{
		{"all won, beyond the spread", shift(-2), true, 10, true},
		{"nine won, one lost", shift(-2, 3), true, 9, true},
		{"eight won", shift(-2, 3, 4), true, 8, false},
		{"all won, inside the spread", shift(-0.05), true, 10, false},
		{"higher is better", shift(2), false, 10, true},
		{"higher is better, head lower", shift(-2), false, 0, false},
	} {
		r := judge(base, tc.head, tc.lowerBetter)
		if r.won != tc.won || r.holds != tc.holds {
			t.Errorf("%s: won %d/%d holds %v, want won %d holds %v", tc.name, r.won, r.pairs, r.holds, tc.won, tc.holds)
		}
	}
	// A tie counts for neither side: nine wins and a tie is still nine of ten.
	tied := shift(-2)
	tied[0] = base[0]
	if r := judge(base, tied, true); r.won != 9 || !r.holds {
		t.Errorf("nine wins and a tie: won %d holds %v, want 9 true", r.won, r.holds)
	}
}
