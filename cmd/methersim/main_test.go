package main

import (
	"math"
	"testing"
)

func TestCounterTarget(t *testing.T) {
	for _, tc := range []struct {
		in      uint
		want    uint32
		wantErr bool
	}{
		{0, 0, true},
		{1, 1, false},
		{math.MaxUint32, math.MaxUint32, false},
		{math.MaxUint32 + 1, 0, true},
	} {
		got, err := counterTarget(tc.in)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("counterTarget(%d) = %d, %v; want %d, error %v", tc.in, got, err, tc.want, tc.wantErr)
		}
	}
}
