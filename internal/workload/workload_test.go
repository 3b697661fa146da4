package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mether/pipe"
)

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if s := (Fixed{Size: 24}).Next(rng); s != 24 {
		t.Errorf("Fixed.Next = %d", s)
	}
	b := Bimodal{Small: 8, Large: 4000, LargeEvery: 4}
	small, large := 0, 0
	for i := 0; i < 1000; i++ {
		switch b.Next(rng) {
		case 8:
			small++
		case 4000:
			large++
		default:
			t.Fatal("Bimodal returned an unexpected size")
		}
	}
	if large == 0 || small < large {
		t.Errorf("Bimodal mix off: %d small, %d large", small, large)
	}
	for _, d := range []SizeDist{Fixed{1}, b} {
		if d.Name() == "" {
			t.Error("empty distribution name")
		}
	}
}

func TestRunDeliversAllSizes(t *testing.T) {
	r := runConfig(t, Pipe, PipeConfig{Dist: Bimodal{Small: 8, Large: 2000, LargeEvery: 3}, Messages: 12, Options: Options{Seed: 2}})
	if r.DNF || r.Ops != 12 || r.Net.WireBytes == 0 || r.Wall <= 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestShortPathIsFaster(t *testing.T) {
	smallR := runConfig(t, Pipe, PipeConfig{Dist: Fixed{Size: 8}, Messages: 10, Options: Options{Seed: 1}})
	bigR := runConfig(t, Pipe, PipeConfig{Dist: Fixed{Size: 7000}, Messages: 10, Options: Options{Seed: 1}})
	if smallR.Wall >= bigR.Wall {
		t.Errorf("small messages (%v) should beat full-page messages (%v)", smallR.Wall, bigR.Wall)
	}
	if smallR.Net.WireBytes >= bigR.Net.WireBytes {
		t.Errorf("wire bytes: small %d should be far under big %d", smallR.Net.WireBytes, bigR.Net.WireBytes)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Pipe(PipeConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Pipe(PipeConfig{Dist: Fixed{8}, Messages: 0}); err == nil {
		t.Error("zero messages accepted")
	}
}

// Property: any distribution's draws clamp into the pipe's payload range
// after Run's clamping, and runs deliver every message intact.
func TestOversizeClampProperty(t *testing.T) {
	prop := func(sz uint16) bool {
		rng := rand.New(rand.NewSource(3))
		d := Fixed{Size: int(sz)}
		s := d.Next(rng)
		if s > pipe.MaxPayload {
			s = pipe.MaxPayload
		}
		return s <= pipe.MaxPayload
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
