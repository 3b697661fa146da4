package main

import (
	"math"
	"testing"

	"mether/internal/protocols"
)

// TestCounterTarget holds the -target flag to the range check the command
// calls before it builds any run.
func TestCounterTarget(t *testing.T) {
	for _, tc := range []struct {
		in      uint
		want    uint32
		wantErr bool
	}{
		{1024, 1024, false},
		{0, 0, true},
		{1, 1, false},
		{math.MaxUint32, math.MaxUint32, false},
		{math.MaxUint32 + 1, 0, true},
	} {
		got, err := protocols.Target(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("protocols.Target(%d) = %d, %v; want %d, error %v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}
