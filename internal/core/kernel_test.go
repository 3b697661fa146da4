package core

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/sim"
)

// newKernelCluster builds a cluster whose drivers run in kernel-server
// mode.
func newKernelCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{k: sim.New(42)}
	c.bus = ethernet.NewBus(c.k, ethernet.DefaultParams())
	cfg := fastConfig(4)
	cfg.KernelServer = true
	for i := 0; i < n; i++ {
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		var d *Driver
		nic := c.bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, n, nil)
		d.StartServer() // no-op in kernel mode
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })
	return c
}

func TestKernelServerBasicTransfer(t *testing.T) {
	c := newKernelCluster(t, 2)
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 4).Short()

	var got uint64
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 777)
	})
	c.run(t, 100*time.Millisecond)
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		got, _ = d1.Load(p, RO, addr, 4)
	})
	c.run(t, time.Second)
	if got != 777 {
		t.Errorf("remote read = %d, want 777", got)
	}
	if d0.Metrics().KernelTime == 0 && d1.Metrics().KernelTime == 0 {
		t.Error("kernel-server mode consumed no kernel time")
	}
	if d0.Server() != nil || d1.Server() != nil {
		t.Error("kernel mode must not spawn a server process")
	}
	c.checkInvariants(t)
}

// TestKernelServerSurvivesSpinners verifies the paper's prediction: with
// the server in the kernel, a spinning client cannot starve protocol
// processing, so fault latency stays near hardware cost even while the
// remote host spins.
func TestKernelServerSurvivesSpinners(t *testing.T) {
	measure := func(kernel bool) time.Duration {
		var c *testCluster
		if kernel {
			c = newKernelCluster(t, 2)
		} else {
			c = newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
		}
		d0, d1 := c.drivers[0], c.drivers[1]
		d0.CreatePage(0)
		addr := NewAddr(0, 0).Short()

		// Host 0 runs a pure spinner to starve its (user-level) server.
		c.spawn(0, "spin", func(p *host.Proc) {
			_ = d0.MapIn(p, RW, 0)
			for p.Now() < 400*time.Millisecond {
				p.UseUser(50 * time.Microsecond)
			}
		})
		// Host 1 demand-fetches from host 0 after the spinner is running.
		c.spawn(1, "r", func(p *host.Proc) {
			p.SleepFor(50 * time.Millisecond)
			_ = d1.MapIn(p, RO, 0)
			_, _ = d1.Load(p, RO, addr, 4)
		})
		c.run(t, 2*time.Second)
		return d1.Metrics().FaultLatency.Mean()
	}

	user := measure(false)
	kern := measure(true)
	if kern >= user {
		t.Errorf("kernel server latency %v should beat user-level %v under a spinner", kern, user)
	}
	if kern > 5*time.Millisecond {
		t.Errorf("kernel server latency = %v, want near hardware cost", kern)
	}
}

func TestKernelServerPurgeAndDataDriven(t *testing.T) {
	c := newKernelCluster(t, 2)
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	addr := NewAddr(0, 0).Short()

	var got uint64
	var wokeAt time.Duration
	c.spawn(1, "r", func(p *host.Proc) {
		_ = d1.MapIn(p, RO, 0)
		_ = d1.Purge(p, RO, addr)
		got, _ = d1.Load(p, RO, addr.DataDriven(), 4)
		wokeAt = p.Now()
	})
	c.run(t, 200*time.Millisecond)
	if wokeAt != 0 {
		t.Fatal("data-driven read completed without a transit")
	}
	c.spawn(0, "w", func(p *host.Proc) {
		_ = d0.MapIn(p, RW, 0)
		_ = d0.Store(p, RW, addr, 4, 31)
		_ = d0.Purge(p, RW, addr)
	})
	c.run(t, time.Second)
	if got != 31 {
		t.Errorf("data-driven read = %d, want 31", got)
	}
	c.checkInvariants(t)
}
