package main

import (
	"testing"

	"deltapath/internal/eval"
)

// TestDecodeChecksAllocs pins the decode row of the gate: a fresh run that
// allocates where the baseline did not fails it, and an equal one passes.
func TestDecodeChecksAllocs(t *testing.T) {
	base := []eval.DecodeRow{{Program: "compress", AllocsPerOp: 0}}
	for _, tc := range []struct {
		fresh float64
		fail  bool
	}{{0, false}, {0.4, false}, {1, true}} {
		checks := decodeChecks(base, []eval.DecodeRow{{Program: "compress", AllocsPerOp: tc.fresh}})
		if len(checks) != 1 || checks[0].name != "decode compress compiled allocs/op" {
			t.Fatalf("fresh %v: checks %+v, want one decode row", tc.fresh, checks)
		}
		if got := checks[0].regressed(0.25); got != tc.fail {
			t.Errorf("fresh %v allocs/op over a baseline of 0: regressed=%v, want %v", tc.fresh, got, tc.fail)
		}
	}
	if checks := decodeChecks(base, []eval.DecodeRow{{Program: "sunflow"}}); len(checks) != 0 {
		t.Errorf("a program missing from the fresh run produced checks %+v", checks)
	}
}
