package core

import (
	"fmt"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/sim"
)

// testCluster wires kernel + bus + hosts + drivers for driver-level tests.
type testCluster struct {
	k       *sim.Kernel
	bus     *ethernet.Bus
	hosts   []*host.Host
	drivers []*Driver
}

// fastHostParams keeps simulated runs short for unit tests.
func fastHostParams() host.Params {
	return host.Params{
		Quantum:         10 * time.Millisecond,
		CtxSwitch:       200 * time.Microsecond,
		DispatchLatency: 50 * time.Microsecond,
		TrapCost:        100 * time.Microsecond,
		SyscallCost:     50 * time.Microsecond,
		InterruptCost:   50 * time.Microsecond,
	}
}

func fastConfig(pages int) Config {
	return Config{
		NumPages:     pages,
		RetryTimeout: 50 * time.Millisecond,
		PacketCost:   200 * time.Microsecond,
		ByteCost:     100 * time.Nanosecond,
	}
}

func newTestCluster(t testing.TB, n int, ep ethernet.Params, cfg Config) *testCluster {
	t.Helper()
	c := &testCluster{k: sim.New(42)}
	c.bus = ethernet.NewBus(c.k, ep)
	for i := 0; i < n; i++ {
		h := host.New(c.k, i, fmt.Sprintf("h%d", i), fastHostParams())
		var d *Driver
		nic := c.bus.AttachPort(fmt.Sprintf("h%d", i), func() { d.FrameArrived() })
		d = New(h, nic, cfg, n, nil)
		d.StartServer()
		c.hosts = append(c.hosts, h)
		c.drivers = append(c.drivers, d)
	}
	t.Cleanup(func() { c.k.Shutdown() })
	return c
}

// run drives the simulation until quiescence or the deadline.
func (c *testCluster) run(t *testing.T, deadline time.Duration) {
	t.Helper()
	c.k.RunUntil(deadline)
}

// spawn starts a client process on host i.
func (c *testCluster) spawn(i int, name string, fn func(p *host.Proc)) *host.Proc {
	return c.hosts[i].Spawn(name, fn)
}

// checkInvariants asserts the cluster-wide ownership invariants.
func (c *testCluster) checkInvariants(t *testing.T) {
	t.Helper()
	if err := CheckInvariants(c.drivers...); err != nil {
		t.Errorf("invariant violation: %v", err)
	}
}
