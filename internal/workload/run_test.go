package workload

import (
	"strings"
	"testing"
	"time"

	"mether"
)

// runConfig builds c's workload with build and runs it under c's
// embedded options, failing the test on an error.
func runConfig[C interface {
	Run(Workload) (Report, error)
}](t *testing.T, build func(C) (Workload, error), c C) Report {
	t.Helper()
	wl, err := build(c)
	var r Report
	if err == nil {
		r, err = c.Run(wl)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// A run that ends with the DSM invariants broken fails with their error,
// which a sweep reports as the cell's err. Here the layout has hosts 0
// and 1 both create page 0, so the world starts, and ends, with two
// consistent copies of it.
func TestRunChecksInvariantsAtEnd(t *testing.T) {
	wl := Workload{Hosts: 2, Pages: 1, Layout: func(w *mether.World) error {
		if _, err := w.CreateSegment("twice", 1, 0); err != nil {
			return err
		}
		w.Driver(1).CreatePage(0)
		return nil
	}}
	_, err := Options{Seed: 1, Cap: time.Second}.Run(wl)
	if want := "page 0 has 2 consistent copies"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run = %v, want an error containing %q", err, want)
	}
}
