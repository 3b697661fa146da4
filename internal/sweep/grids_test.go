package sweep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mether/internal/proto"
)

// gridDefinitionsSHA256 is the hash TestGridDefinitionsPinned compares
// against, recorded at the commit before the cluster grid's four
// rewriting axes (trunks, redundancy, faults, medium) were deleted
// (f93b242), over the same loop, and re-recorded when Scenario lost its
// PortLoss field (the commit before, with " PortLoss:0" cut from each
// %+v, hashes to the same value) and its RxRing field (the commit before,
// with each cell's RxRing moved into RingSlots, which no cell set
// beside it, and " RxRing:0" cut, hashes to the same value). It changes
// only when a cell's definition is meant to change, or a Scenario field
// goes; say which and why in the commit.
const gridDefinitionsSHA256 = "bcb42aaa33ff69dd11f6f0c56c1a8b6eda4440405842c54414734e0f3c757b0a"

// TestGridDefinitionsPinned hashes the %+v of every Scenario of every
// named grid at every pinned host rung and seed, so a refactor of the
// grid builders is provably definition-neutral: cell set, cell order,
// names and every knob.
func TestGridDefinitionsPinned(t *testing.T) {
	h := sha256.New()
	cells := 0
	for _, hosts := range []int{0, 16, 48, 64, 100, 256, 512, 1024, 2048, 4096, 10000} {
		for _, seed := range []int64{0, 7} {
			o := Options{Hosts: hosts, Seed: seed}
			for _, name := range GridNames() {
				scs := grids[name](o)
				fmt.Fprintf(h, "%s %d\n", name, len(scs))
				for _, s := range scs {
					fmt.Fprintf(h, "%+v\n", s)
				}
				if name == "cluster" {
					cells += len(scs)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != gridDefinitionsSHA256 {
		t.Errorf("grid definitions changed: sha256 %s (%d cluster cells), want %s;\n"+
			"testdata/grids.golden (TestGridDefinitionsGolden) shows the default cluster and smoke cells readably",
			got, cells, gridDefinitionsSHA256)
	}
}

// describe renders a Scenario's non-zero fields on one line, in
// declaration order.
func describe(s Scenario) string {
	var b strings.Builder
	b.WriteString(s.Name)
	v := reflect.ValueOf(s)
	for i := 1; i < v.NumField(); i++ { // field 0 is Name
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// TestGridDefinitionsGolden is the readable half of the pin: the
// default cluster and smoke grids, one cell per line, non-zero knobs
// only. When the hash above moves, the diff of this file says what
// moved.
func TestGridDefinitionsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, name := range []string{"cluster", "smoke"} {
		scs, err := Grid(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "# %s: %d cells\n", name, len(scs))
		for _, s := range scs {
			fmt.Fprintln(&got, describe(s))
		}
	}
	path := filepath.Join("testdata", "grids.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("grid definitions differ from %s (go test ./internal/sweep -run TestGridDefinitionsGolden -update rewrites it):\n%s", path, got.Bytes())
	}
}

// TestGridRejectsBadAxes is the table of the host-count rule Grid holds:
// a count no cell could run with is an error before anything runs, on
// every grid (methersweep checks flag types only), and the counts at
// the rule's edges still build.
func TestGridRejectsBadAxes(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string // substring of the error; "" = must build
	}{
		{"negative hosts", Options{Hosts: -1}, "hosts -1 out of range"},
		{"hosts beyond the wire's host id", Options{Hosts: proto.MaxHostID + 1}, "out of range"},
		{"largest host id", Options{Hosts: proto.MaxHostID}, ""},
		{"one host, below every cell's minimum", Options{Hosts: 1}, "hosts 1 out of range"},
		{"two hosts", Options{Hosts: 2}, ""},
	} {
		for _, grid := range []string{"cluster", "smoke"} {
			scs, err := Grid(grid, tc.o)
			switch {
			case tc.want == "" && (err != nil || len(scs) == 0):
				t.Errorf("%s: Grid(%q, %+v) = %d cells, %v; want a grid", tc.name, grid, tc.o, len(scs), err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s: Grid(%q, %+v) error = %v, want one containing %q", tc.name, grid, tc.o, err, tc.want)
			}
		}
	}
}
