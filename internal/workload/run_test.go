package workload

import "testing"

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
