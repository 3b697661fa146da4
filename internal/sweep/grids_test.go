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
// against, recorded at the commit before ClusterGrid became base ×
// variant data (PR 17's parent, 7b67ce9). It changes only when a cell's
// definition is meant to change; say which cell and why in the commit.
const gridDefinitionsSHA256 = "ed6d667168fbb3b8f8e281366b266c8d12d1566596e02d17b23c7012902655e0"

// TestGridDefinitionsPinned hashes the %+v of every Scenario of every
// named grid under every combination of the grid axes, so a refactor of
// the grid builders is provably definition-neutral: cell set, cell
// order, names (suffix order: variant, then /tN-star, then /kN, then
// /fab; the faults-custom cell joins after the trunk and redundancy
// passes) and every knob. It calls the builders under Grid's axis
// validation on purpose: the matrix crosses axes Grid rejects (fabric ×
// trunks), and those definitions are pinned too.
func TestGridDefinitionsPinned(t *testing.T) {
	h := sha256.New()
	// The same cell recurs across most option sets (only the cluster grid
	// reads most axes); formatting each distinct Scenario once keeps the
	// test to a second without changing a hashed byte.
	formatted := make(map[Scenario][]byte)
	sets, cells := 0, 0
	for _, hosts := range []int{0, 16, 48, 64, 100, 256, 512, 1024, 2048, 4096, 10000} {
		for _, trunks := range []int{0, 1, 2, 4} {
			for _, k := range []int{0, 1, 2, 3} {
				for _, faults := range []string{"", "on", "off", "crash@1s:h3;recover@2s:h3"} {
					for _, medium := range []string{"", "ethernet", "fabric"} {
						for _, seed := range []int64{0, 7} {
							o := Options{Hosts: hosts, Trunks: trunks, Redundancy: k,
								Faults: faults, Medium: medium, Seed: seed}
							sets++
							fmt.Fprintf(h, "%+v\n", o)
							for _, name := range GridNames() {
								scs := grids[name](o)
								fmt.Fprintf(h, "%s %d\n", name, len(scs))
								for _, s := range scs {
									f, ok := formatted[s]
									if !ok {
										f = fmt.Appendf(nil, "%+v\n", s)
										formatted[s] = f
									}
									h.Write(f)
								}
								if name == "cluster" {
									cells += len(scs)
								}
							}
						}
					}
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != gridDefinitionsSHA256 {
		t.Errorf("grid definitions changed: sha256 %s over %d option sets (%d cluster cells), want %s;\n"+
			"testdata/grids.golden (TestGridDefinitionsGolden) shows the default cluster and smoke cells readably",
			got, sets, cells, gridDefinitionsSHA256)
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

// TestGridRejectsBadAxes is the table of every axis rule Grid holds: a
// value no cell could run with is an error before anything runs, on
// every grid (methersweep checks flag types only), and the values at
// each rule's edge still build.
func TestGridRejectsBadAxes(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		want string // substring of the error; "" = must build
	}{
		{"negative hosts", Options{Hosts: -1}, "hosts -1 out of range"},
		{"hosts beyond the wire's host id", Options{Hosts: proto.MaxHostID + 1}, "out of range"},
		{"largest host id", Options{Hosts: proto.MaxHostID}, ""},
		{"negative trunks", Options{Trunks: -1}, "-1 trunks"},
		{"more trunks than the smallest default size", Options{Trunks: 17}, "17 trunks for 16 hosts"},
		{"a trunk per host of the smallest default size", Options{Trunks: 16}, ""},
		{"more trunks than -hosts", Options{Hosts: 64, Trunks: 65}, "65 trunks for 64 hosts"},
		{"negative redundancy", Options{Redundancy: -1}, "redundancy -1 out of range"},
		{"redundancy beyond the wire's target list", Options{Redundancy: proto.MaxRedundantTargets + 2}, "out of range"},
		{"owner plus a full target list", Options{Redundancy: proto.MaxRedundantTargets + 1}, ""},
		{"unknown medium", Options{Medium: "token-ring"}, `unknown medium kind "token-ring"`},
		{"fabric with trunks", Options{Medium: "fabric", Trunks: 2}, "trunks are an Ethernet concept"},
		{"fabric on one trunk", Options{Medium: "fabric", Trunks: 1}, ""},
		{"malformed faults", Options{Faults: "bogus"}, `fault spec "bogus"`},
		{"fault on a host the custom cell lacks", Options{Faults: "crash@1ms:h16"}, "host 16 out of range (0..15)"},
		{"fault on the custom cell's last host", Options{Hosts: 64, Faults: "crash@1ms:h63"}, ""},
		{"partition on the single-trunk custom cell", Options{Faults: "partition@1ms:b0"}, "bridge 0 out of range"},
		{"faults off", Options{Faults: "off"}, ""},
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
