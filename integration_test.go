package mether_test

import (
	"fmt"
	"testing"
	"time"

	"mether"
	"mether/internal/ethernet"
	"mether/internal/protocols"
	"mether/internal/sweep"
	"mether/internal/workload"
	"mether/pipe"
	"mether/registry"
)

// TestFourHostMixedWorkload runs a realistic multi-application cluster:
// a registry publisher, pipe traffic between two hosts, and a shared
// status page updated with the final-protocol discipline — all on four
// hosts at once, ending with the global invariants intact.
func TestFourHostMixedWorkload(t *testing.T) {
	w := mether.NewWorld(mether.Config{Hosts: 4, Pages: 32, Seed: 21})
	defer w.Shutdown()

	dir, err := registry.Create(w, "cluster", 0)
	if err != nil {
		t.Fatal(err)
	}
	status, err := w.CreateSegment("status", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pipeCap, err := pipe.Create(w, "bulk", 2, 3)
	if err != nil {
		t.Fatal(err)
	}

	const msgs = 6
	var (
		consumerSaw  mether.Capability
		pipeReceived int
		statusReads  uint32
	)

	// Host 0: publishes the status segment's capability, then updates
	// the status page periodically with store+purge.
	w.Spawn(0, "publisher", func(env *mether.Env) {
		h, err := registry.Open(env, dir)
		if err != nil {
			t.Errorf("registry open: %v", err)
			return
		}
		if err := h.Publish("status", status.CapRO()); err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		m, err := env.Attach(status.CapRW(), mether.RW)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		a := m.Addr(0, 0).Short()
		for i := uint32(1); i <= 5; i++ {
			if err := m.Store32(a, i); err != nil {
				t.Errorf("store: %v", err)
				return
			}
			if err := m.Purge(a); err != nil {
				t.Errorf("purge: %v", err)
				return
			}
			env.SleepFor(40 * time.Millisecond)
		}
	})

	// Host 1: waits for the registry entry, then follows status updates
	// through the data-driven view.
	w.Spawn(1, "watcher", func(env *mether.Env) {
		h, err := registry.Open(env, dir.ReadOnly())
		if err != nil {
			t.Errorf("registry open ro: %v", err)
			return
		}
		cap, err := h.Wait("status")
		if err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		consumerSaw = cap
		m, err := env.Attach(cap, mether.RO)
		if err != nil {
			t.Errorf("attach status: %v", err)
			return
		}
		a := m.Addr(0, 0).Short()
		last := uint32(0)
		for last < 5 {
			v, err := m.Load32(a)
			if err != nil {
				t.Errorf("status read: %v", err)
				return
			}
			if v > last {
				last = v
				statusReads++
				continue
			}
			if err := m.Purge(a); err != nil {
				t.Errorf("status purge: %v", err)
				return
			}
			if _, err := m.Load32(a.DataDriven()); err != nil {
				t.Errorf("status data read: %v", err)
				return
			}
		}
	})

	// Hosts 2 and 3: bulk pipe traffic alongside everything else.
	w.Spawn(2, "pipe-tx", func(env *mether.Env) {
		p, err := pipe.Open(env, pipeCap, 0)
		if err != nil {
			t.Errorf("pipe open: %v", err)
			return
		}
		for i := 0; i < msgs; i++ {
			size := 8 + (i%3)*1000 // mix of short and full path
			if err := p.Send(uint32(i), make([]byte, size)); err != nil {
				t.Errorf("pipe send: %v", err)
				return
			}
		}
	})
	w.Spawn(3, "pipe-rx", func(env *mether.Env) {
		p, err := pipe.Open(env, pipeCap, 1)
		if err != nil {
			t.Errorf("pipe open: %v", err)
			return
		}
		for i := 0; i < msgs; i++ {
			m, err := p.Recv()
			if err != nil {
				t.Errorf("pipe recv: %v", err)
				return
			}
			if m.Tag != uint32(i) {
				t.Errorf("pipe tag = %d, want %d", m.Tag, i)
				return
			}
			pipeReceived++
		}
	})

	w.RunUntil(5 * time.Minute)

	if consumerSaw.Segment != "status" {
		t.Errorf("watcher got capability %q", consumerSaw.Segment)
	}
	if statusReads == 0 {
		t.Error("watcher never observed a status update")
	}
	if pipeReceived != msgs {
		t.Errorf("pipe delivered %d/%d messages", pipeReceived, msgs)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Errorf("invariants after mixed workload: %v", err)
	}
}

// TestMixedWorkloadUnderLossStillConverges repeats a trimmed mixed
// workload on a lossy wire: demand paths retry, so everything completes.
func TestMixedWorkloadUnderLossStillConverges(t *testing.T) {
	np := ethernet.DefaultParams()
	np.LossRate = 0.01
	w := mether.NewWorld(mether.Config{Hosts: 3, Pages: 16, Seed: 5,
		Medium: mether.MediumConfig{Ethernet: np}})
	defer w.Shutdown()

	seg, err := w.CreateSegment("shared", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cap := seg.CapRW()
	done := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		w.Spawn(i, fmt.Sprintf("writer%d", i), func(env *mether.Env) {
			m, err := env.Attach(cap, mether.RW)
			if err != nil {
				t.Errorf("attach: %v", err)
				return
			}
			a := m.Addr(0, i*8)
			for j := 0; j < 10; j++ {
				if err := m.Store32(a, uint32(j)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				env.SleepFor(5 * time.Millisecond)
			}
			done[i] = true
		})
	}
	w.RunUntil(5 * time.Minute)
	for i, d := range done {
		if !d {
			t.Errorf("writer %d did not finish under loss", i)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWorldDeterminismAcrossSubsystems runs the full mixed stack twice
// and requires identical outcomes.
func TestWorldDeterminismAcrossSubsystems(t *testing.T) {
	run := func() (time.Duration, uint64) {
		w := mether.NewWorld(mether.Config{Hosts: 3, Pages: 16, Seed: 17})
		defer w.Shutdown()
		cap, err := pipe.Create(w, "d", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		w.Spawn(0, "tx", func(env *mether.Env) {
			p, _ := pipe.Open(env, cap, 0)
			for i := 0; i < 4; i++ {
				_ = p.Send(uint32(i), []byte{byte(i)})
			}
		})
		w.Spawn(1, "rx", func(env *mether.Env) {
			p, _ := pipe.Open(env, cap, 1)
			for i := 0; i < 4; i++ {
				_, _ = p.Recv()
			}
		})
		end := w.Run()
		return end, w.NetStats().WireBytes
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Errorf("nondeterministic: (%v,%d) vs (%v,%d)", e1, b1, e2, b2)
	}
}

// TestPollersAreSchedulerRun pins what TestServerIsAHostTask pins for the
// server, for the clients that spin: in the two kinds of cell that used to
// resume a coroutine per look — a barrier's waiters and Figure 6's two
// mutual spinners — the looks are kernel callbacks (Mapping.Spin32) and
// a coroutine is switched to only when a process has something to do.
// With a resume per look the shares were 43 % and 58 % (the cluster
// grid's 16-host barrier cell, whose knobs these are, and the Figure 6
// cell at target 64).
func TestPollersAreSchedulerRun(t *testing.T) {
	wl, err := workload.Barrier(workload.BarrierConfig{Hosts: 16, Phases: 4, HysteresisPurge: 16 * 16})
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := workload.Options{}.Run(wl)
	if err != nil || barrier.DNF {
		t.Fatalf("barrier: err %v, DNF %v", err, barrier.DNF)
	}
	if wl, err = protocols.Counter(protocols.Config{Protocol: protocols.P3DisjointRO, Target: 64}); err != nil {
		t.Fatal(err)
	}
	fig6, err := workload.Options{}.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]mether.Harvest{"16-host barrier": barrier.Harvest, "figure 6": fig6.Harvest} {
		if h.Events < 10000 || h.Engine.Resumes*20 >= h.Events {
			t.Errorf("%s: %d coroutine resumes in %d events, want under 5 %%", name, h.Engine.Resumes, h.Events)
		}
	}
}

// TestSpinWorldFilesEventsOnce: in the Figure 6 cell at the benchmark's
// target — two mutual spinners on resident copies that never change, the
// grid's longest run of looks (9 565 037 of its 9 567 109 events) — at most
// one dispatched event in a hundred runs as a callback: the looks are
// skipped in the kernel's repeat lane, a window at a time.
func TestSpinWorldFilesEventsOnce(t *testing.T) {
	opts := workload.Options{Seed: 1, Cap: 240 * time.Second, LossRate: 0.002}
	wl, err := protocols.Counter(protocols.Config{Protocol: protocols.P3DisjointRO, Target: 1024, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := opts.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Engine
	t.Logf("%d events: %d popped, %d batched, %d skipped", rep.Events, c.Pops, c.Batched, c.Skipped)
	if rep.Events < 1000000 || (c.Pops+c.Batched)*100 > rep.Events {
		t.Errorf("%d events, %d popped and %d batched: want at most one in a hundred of at least a million run as a callback", rep.Events, c.Pops, c.Batched)
	}
}

// TestFabricCellsOnlyBroadcast: every frame the fabric cells of the smoke
// grid and of the 64-host cluster rung put on the wire is a broadcast's
// copy (FanoutFrames == Frames). The fabric keeps one transmitter per
// port; per-pair links would hold exactly its state while a port sends
// nothing but broadcasts, and this pins that no program sends anything
// else.
func TestFabricCellsOnlyBroadcast(t *testing.T) {
	smoke, err := sweep.Grid("smoke", sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sweep.Grid("cluster", sweep.Options{Hosts: 64})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, s := range append(smoke, cluster...) {
		if s.Medium != mether.MediumFabric {
			continue
		}
		cells++
		if r := s.Run(); r.Err != "" || r.Packets == 0 || r.FanoutFrames != r.Packets {
			t.Errorf("%s: %d frames, %d of them fan-out copies, err %q", s.Name, r.Packets, r.FanoutFrames, r.Err)
		}
	}
	if cells != 4 {
		t.Errorf("%d fabric cells, want 4", cells)
	}
}
