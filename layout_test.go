package mether_test

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"mether"
	"mether/internal/core"
	"mether/internal/host"
)

// windowedConfig is the world of the windowed lazy cells (the 1024- and
// 10 000-host tiers): lazy replicas, 64-slot rings, a 500 ms retry.
func windowedConfig(hosts int) mether.Config {
	cfg := mether.Config{Hosts: hosts, Pages: hosts, Seed: 1}
	cfg.Core = core.DefaultConfig(hosts)
	cfg.Core.LazyReplicas = true
	cfg.Core.RetryTimeout = 500 * time.Millisecond
	cfg.Medium.RingOf = func(int) int { return 64 }
	return cfg
}

// worldAllocsPerHost bounds what building a world allocates, per host:
// each kind of per-host record (Host, Driver with its server and task
// inline, NIC or fabric Port) is one slice per world and the hosts' names
// are one string, so what is left per host is five prebuilt closures
// (dispatch, the port's interrupt, the server's wake, step and resume),
// the directory's shard table and the host's process list.
const worldAllocsPerHost = 9

// TestWorldBuildAllocations pins worldAllocsPerHost on both media, at 64
// hosts and on the 1024-host windowed world (8.7 and 8.1 a host). With a
// heap object per record and a formatted name per host, the build took
// about 16 objects a host.
func TestWorldBuildAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  mether.Config
	}{
		{"h64", mether.Config{Hosts: 64, Pages: 64, Seed: 1}},
		{"h64/fab", mether.Config{Hosts: 64, Pages: 64, Seed: 1, Medium: mether.MediumConfig{Kind: mether.MediumFabric}}},
		{"h1024/windowed", windowedConfig(1024)},
	} {
		got := testing.AllocsPerRun(3, func() { mether.NewWorld(c.cfg).Shutdown() })
		if per := got / float64(c.cfg.Hosts); per > worldAllocsPerHost {
			t.Errorf("%s: building the world allocates %.2f objects per host, want at most %d", c.name, per, worldAllocsPerHost)
		}
	}
}

// TestPerHostRecordsAreSlabs checks the layout the broadcast path walks:
// consecutive hosts' Drivers, and their Hosts, sit one record apart, so a
// frame's N-1 receivers are visited in address order.
func TestPerHostRecordsAreSlabs(t *testing.T) {
	for _, kind := range []string{mether.MediumEthernet, mether.MediumFabric} {
		w := mether.NewWorld(mether.Config{Hosts: 8, Medium: mether.MediumConfig{Kind: kind}})
		for i := 1; i < w.NumHosts(); i++ {
			if d := uintptr(unsafe.Pointer(w.Driver(i))) - uintptr(unsafe.Pointer(w.Driver(i-1))); d != unsafe.Sizeof(core.Driver{}) {
				t.Errorf("%s: Driver %d sits %d bytes after Driver %d, want %d", kind, i, d, i-1, unsafe.Sizeof(core.Driver{}))
			}
			if d := uintptr(unsafe.Pointer(w.HostMachine(i))) - uintptr(unsafe.Pointer(w.HostMachine(i-1))); d != unsafe.Sizeof(host.Host{}) {
				t.Errorf("%s: Host %d sits %d bytes after Host %d, want %d", kind, i, d, i-1, unsafe.Sizeof(host.Host{}))
			}
		}
		w.Shutdown()
	}
}

// BenchmarkWorldBuild times building (and shutting down) the 1024-host
// windowed world, per host, with the objects it allocates per host.
func BenchmarkWorldBuild(b *testing.B) {
	b.Run("1024", func(b *testing.B) {
		cfg := windowedConfig(1024)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mether.NewWorld(cfg).Shutdown()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		hosts := float64(b.N) * float64(cfg.Hosts)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/hosts, "ns/host")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/hosts, "allocs/host")
	})
}
