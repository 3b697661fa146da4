package workload

import (
	"reflect"
	"testing"
	"time"
)

// TestStationaryCompletes runs the P5-style stationary-owner counter at
// several cluster sizes: every host finishes all its updates, total
// updates add up, and the sampling path observed the neighbours.
func TestStationaryCompletes(t *testing.T) {
	for _, hosts := range []int{2, 4, 16} {
		r := runConfig(t, Stationary, StationaryConfig{Hosts: hosts, Iters: 8, Options: Options{Seed: 1}})
		if r.DNF {
			t.Fatalf("hosts=%d: did not finish (updates=%d)", hosts, r.Ops)
		}
		if want := uint64(hosts * 8); r.Ops != want {
			t.Errorf("hosts=%d: updates = %d, want %d", hosts, r.Ops, want)
		}
		if r.Samples == 0 {
			t.Errorf("hosts=%d: no neighbour samples observed", hosts)
		}
		if r.Wall <= 0 || r.Net.Frames == 0 || r.Events == 0 {
			t.Errorf("hosts=%d: implausible stats %+v", hosts, r.Harvest)
		}
	}
}

// TestStationaryNetworkLoadScalesLinearly pins the property that makes
// the stationary discipline the scale-out baseline: per-update packet
// cost must not grow with cluster size (ownership never moves, one
// broadcast per update).
func TestStationaryNetworkLoadScalesLinearly(t *testing.T) {
	perUpdate := func(hosts int) float64 {
		r := runConfig(t, Stationary, StationaryConfig{Hosts: hosts, Iters: 16, Options: Options{Seed: 1}})
		if r.DNF {
			t.Fatalf("hosts=%d did not finish", hosts)
		}
		return float64(r.Net.Frames) / float64(r.Ops)
	}
	small, large := perUpdate(4), perUpdate(16)
	if large > 2*small {
		t.Errorf("packets/update grew superlinearly: %d hosts -> %.2f, %d hosts -> %.2f", 4, small, 16, large)
	}
}

// TestStationaryRejectsBadConfig covers the validation path.
func TestStationaryRejectsBadConfig(t *testing.T) {
	if _, err := Stationary(StationaryConfig{Hosts: 1}); err == nil {
		t.Error("1-host stationary run should be rejected")
	}
}

// TestStationaryDeterministic runs one stationary config twice on one
// seed: the reports must be equal field for field.
func TestStationaryDeterministic(t *testing.T) {
	c := StationaryConfig{Hosts: 4, Iters: 8, Options: Options{Seed: 7, Cap: time.Minute}}
	if a, b := runConfig(t, Stationary, c), runConfig(t, Stationary, c); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different reports:\n%+v\n%+v", a, b)
	}
}
