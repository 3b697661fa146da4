package protocols

import (
	"strings"
	"testing"

	"mether"
	"mether/internal/trace"
	"mether/internal/workload"
)

// traced runs a counter with the protocol analyzer attached by its
// layout and returns the report and the first 64 datagrams, decoded.
func traced(t *testing.T, cfg Config) (workload.Report, string) {
	t.Helper()
	wl, err := Counter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tap *trace.Log
	layout := wl.Layout
	wl.Layout = func(w *mether.World) error {
		tap = w.AttachTap(64)
		return layout(w)
	}
	r, err := cfg.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	return r, tap.String()
}

// TestFinalProtocolWireSignature pins the final protocol's on-wire
// behaviour: after the two startup demand fetches, every increment is
// exactly one short DATA broadcast — "Only one packet was ever sent per
// increment: the PURGE packet from the host with the writeable page."
func TestFinalProtocolWireSignature(t *testing.T) {
	r, trace := traced(t, Config{Protocol: P5Final, Target: 8, Options: workload.Options{Seed: 1}})
	if r.DNF {
		t.Fatal("did not finish")
	}
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	var kinds []string
	for _, l := range lines {
		switch {
		case strings.Contains(l, "MALFORMED"):
			t.Fatalf("malformed frame on the wire: %s", l)
		case strings.Contains(l, "REQ"):
			kinds = append(kinds, "REQ")
		case strings.Contains(l, "RESTREQ"), strings.Contains(l, "RESTDATA"):
			t.Fatalf("rest fetch in a short-only protocol: %s", l)
		case strings.Contains(l, "DATA"):
			kinds = append(kinds, "DATA")
			if !strings.Contains(l, "short") {
				t.Errorf("full-page packet in the final protocol: %s", l)
			}
		}
	}

	// Startup: each side demand-fetches the peer's page once (2 REQ + 2
	// DATA in some interleaving), then 8 increments = 8 purge DATA
	// broadcasts, minus the two increments whose values travelled with
	// the startup replies.
	reqs, datas := 0, 0
	for _, k := range kinds {
		if k == "REQ" {
			reqs++
		} else {
			datas++
		}
	}
	if reqs != 2 {
		t.Errorf("requests on the wire = %d, want exactly the 2 startup fetches\n%s", reqs, trace)
	}
	// One DATA per increment plus the two startup replies.
	if datas != int(r.Ops)+2 {
		t.Errorf("data broadcasts = %d, want %d (one per increment + 2 startup)\n%s",
			datas, r.Ops+2, trace)
	}
	// After startup, the wire alternates pure purge broadcasts.
	tail := kinds[4:]
	for i, k := range tail {
		if k != "DATA" {
			t.Errorf("steady-state packet %d is %s, want DATA\n%s", i, k, trace)
		}
	}
}

// TestFullPageProtocolWireSignature pins protocol 1's pattern: each
// addition is a request plus one full 8 KiB transfer.
func TestFullPageProtocolWireSignature(t *testing.T) {
	r, trace := traced(t, Config{Protocol: P1FullPage, Target: 8, Options: workload.Options{Seed: 1}})
	full := strings.Count(trace, " full")
	if full < int(r.Ops)-2 {
		t.Errorf("full-page transfers = %d, want ~%d (one per addition)\n%s", full, r.Ops, trace)
	}
	// Attach-time map-in legitimately fetches the 32-byte subset
	// (Figure-1 map-in rule); steady state must be all full-page.
	lines := strings.Split(strings.TrimSpace(trace), "\n")
	if len(lines) > 6 {
		for _, l := range lines[6:] {
			if strings.Contains(l, "short") {
				t.Errorf("short packet in full-page steady state: %s", l)
			}
		}
	}
}
