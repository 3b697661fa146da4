package fault

import (
	"reflect"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "crash@150ms:h3;recover@400ms:h3;partition@200ms:b0;heal@350ms:b0"
	s, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(s.Events))
	}
	again, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of String(): %v", err)
	}
	if !reflect.DeepEqual(s, again) {
		t.Errorf("String/Parse round trip changed the schedule:\n%v\nvs\n%v", s, again)
	}
}

// badSpecs breaks the grammar one rule at a time.
var badSpecs = []string{
	"crash:h3", "crash@150ms", "crash@nope:h3", "crash@1s:b0",
	"partition@1s:h0", "migrate@1s:h1", "explode@1s:h1",
	"migrate@1s:h1>h2",
}

func TestParseEmptyAndErrors(t *testing.T) {
	if s, err := Parse(""); err != nil || !s.Empty() {
		t.Errorf("Parse(\"\") = %v, %v; want empty schedule", s, err)
	}
	for _, bad := range badSpecs {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestValidateRanges(t *testing.T) {
	s := Schedule{}.Crash(time.Second, 3).Partition(2*time.Second, 0)
	if err := s.Validate(4, 1); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := s.Validate(3, 1); err == nil {
		t.Error("host out of range accepted")
	}
	if err := s.Validate(4, 0); err == nil {
		t.Error("bridge out of range accepted")
	}
	if err := (Schedule{}.Crash(-time.Second, 1)).Validate(4, 0); err == nil {
		t.Error("negative time accepted")
	}
}

func TestSortedStableOnTies(t *testing.T) {
	s := Schedule{}.Recover(time.Second, 1).Crash(time.Second, 2).Crash(500*time.Millisecond, 3)
	got := s.Sorted()
	if got[0].Host != 3 || got[1].Kind != Recover || got[2].Kind != Crash {
		t.Errorf("sorted order wrong: %v", got)
	}
}

// Churn is a pure function of its arguments: same seed, same schedule;
// different seed, different victims. Host 0 is never picked and every
// crash has a matching recovery.
func TestChurnDeterministicAndPaired(t *testing.T) {
	a := Churn(7, 64, 0.05, time.Second, time.Second, 100*time.Millisecond, 3)
	b := Churn(7, 64, 0.05, time.Second, time.Second, 100*time.Millisecond, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed churn schedules differ")
	}
	c := Churn(8, 64, 0.05, time.Second, time.Second, 100*time.Millisecond, 3)
	if reflect.DeepEqual(a, c) {
		t.Error("different-seed churn schedules identical")
	}
	// ceil(0.05*64) = 4 hosts per round, 3 rounds, crash+recover pairs.
	if len(a.Events) != 4*3*2 {
		t.Fatalf("churn has %d events, want 24", len(a.Events))
	}
	down := map[int]time.Duration{}
	for _, e := range a.Events {
		switch e.Kind {
		case Crash:
			if e.Host == 0 {
				t.Error("churn crashed host 0 (the coordinator)")
			}
			down[e.Host] = e.At
		case Recover:
			at, ok := down[e.Host]
			if !ok || e.At != at+100*time.Millisecond {
				t.Errorf("recovery of h%d at %v not paired with its crash", e.Host, e.At)
			}
			delete(down, e.Host)
		default:
			t.Errorf("unexpected kind %v in churn schedule", e.Kind)
		}
	}
	if err := a.Validate(64, 0); err != nil {
		t.Errorf("churn schedule invalid: %v", err)
	}
}

// FuzzParse: a fault spec is input from outside the program. Parse
// returns a schedule or an error and never panics, and an accepted
// schedule's String() parses back to the same schedule — a schedule
// built in code survives a Scenario's Faults string. Range checks are
// Validate's, against a world, so negative indices and times parse. The
// corpus is the grammar's good and bad examples from the tests above;
// `go test` runs those, `make fuzz` mutates them.
func FuzzParse(f *testing.F) {
	f.Add("crash@150ms:h3;recover@400ms:h3;partition@200ms:b0;heal@350ms:b0")
	f.Add(" crash@1h2m3.5s:h0 ; ;heal@-1ns:b-7;")
	f.Add("")
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", spec, s, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("Parse(%q): String/Parse round trip changed the schedule: %q vs %q", spec, s, again)
		}
	})
}
