package mether

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// fastWorld builds a small world with quick scheduler constants for tests.
func fastWorld(t *testing.T, hosts int) *World {
	t.Helper()
	cfg := Config{Hosts: hosts, Pages: 16, Seed: 7}
	cfg = cfg.withDefaults()
	cfg.HostParams.Quantum = 10 * time.Millisecond
	cfg.HostParams.CtxSwitch = 200 * time.Microsecond
	cfg.HostParams.TrapCost = 100 * time.Microsecond
	cfg.HostParams.SyscallCost = 50 * time.Microsecond
	cfg.Core.RetryTimeout = 50 * time.Millisecond
	cfg.Core.PacketCost = 200 * time.Microsecond
	cfg.Core.ByteCost = 100 * time.Nanosecond
	w := NewWorld(cfg)
	t.Cleanup(w.Shutdown)
	return w
}

func TestCrossHostWriteRead(t *testing.T) {
	w := fastWorld(t, 2)
	seg, err := w.CreateSegment("shared", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	capRW := seg.CapRW()

	var got uint32
	var rerr error
	w.Spawn(0, "writer", func(env *Env) {
		m, err := env.Attach(capRW, RW)
		if err != nil {
			rerr = err
			return
		}
		if err := m.Store32(m.Addr(0, 0), 1234); err != nil {
			rerr = err
		}
	})
	w.Run()
	w.Spawn(1, "reader", func(env *Env) {
		m, err := env.Attach(capRW.ReadOnly(), RO)
		if err != nil {
			rerr = err
			return
		}
		got, rerr = m.Load32(m.Addr(0, 0).Short())
	})
	w.Run()

	if rerr != nil {
		t.Fatal(rerr)
	}
	if got != 1234 {
		t.Errorf("remote read = %d, want 1234", got)
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSegmentNamesAndLookup(t *testing.T) {
	w := fastWorld(t, 2)
	if _, err := w.CreateSegment("a", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateSegment("a", 1, 0); !errors.Is(err, ErrSegmentExists) {
		t.Errorf("duplicate create err = %v, want ErrSegmentExists", err)
	}
	s, err := w.LookupSegment("a")
	if err != nil || s.Pages() != 2 || s.Name() != "a" {
		t.Errorf("lookup = %+v, %v", s, err)
	}
	if _, err := w.LookupSegment("nope"); !errors.Is(err, ErrNoSuchSegment) {
		t.Errorf("missing lookup err = %v, want ErrNoSuchSegment", err)
	}
}

func TestSegmentExhaustion(t *testing.T) {
	w := fastWorld(t, 2) // 16 pages
	if _, err := w.CreateSegment("big", 16, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateSegment("more", 1, 0); !errors.Is(err, ErrOutOfPages) {
		t.Errorf("exhausted create err = %v, want ErrOutOfPages", err)
	}
}

func TestCreateSegmentValidation(t *testing.T) {
	w := fastWorld(t, 2)
	if _, err := w.CreateSegment("zero", 0, 0); err == nil {
		t.Error("zero-page segment accepted")
	}
	if _, err := w.CreateSegment("badhost", 1, 9); err == nil {
		t.Error("out-of-range owner host accepted")
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	w := fastWorld(t, 2)
	seg, _ := w.CreateSegment("guarded", 1, 0)
	other, _ := w.CreateSegment("other", 1, 0)
	capRO := seg.CapRO()
	capRW := seg.CapRW()

	var errRWviaRO, errWrongSeg, errOK, errWeakened error
	w.Spawn(1, "attacher", func(env *Env) {
		// RO capability cannot attach writable.
		_, errRWviaRO = env.Attach(capRO, RW)
		// Capability for one segment cannot open another.
		wrong := Capability{Segment: other.Name(), Mode: RW, token: 0xdead}
		_, errWrongSeg = env.Attach(wrong, RW)
		// RW capability attaches writable fine.
		_, errOK = env.Attach(capRW, RW)
		// Weakened RW capability attaches read-only fine.
		_, errWeakened = env.Attach(capRW.ReadOnly(), RO)
	})
	w.Run()

	if !errors.Is(errRWviaRO, ErrBadCapability) {
		t.Errorf("RW attach via RO cap err = %v, want ErrBadCapability", errRWviaRO)
	}
	if !errors.Is(errWrongSeg, ErrBadCapability) {
		t.Errorf("wrong segment attach err = %v, want ErrBadCapability", errWrongSeg)
	}
	if errOK != nil {
		t.Errorf("legitimate RW attach failed: %v", errOK)
	}
	if errWeakened != nil {
		t.Errorf("weakened RO attach failed: %v", errWeakened)
	}
}

func TestViewsThroughFacade(t *testing.T) {
	w := fastWorld(t, 2)
	seg, _ := w.CreateSegment("views", 1, 0)
	capRW := seg.CapRW()

	var dataVal uint32
	var done bool
	// Reader blocks on the data-driven view before any data exists.
	w.Spawn(1, "reader", func(env *Env) {
		m, err := env.Attach(capRW.ReadOnly(), RO)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		a := m.Addr(0, 0).Short()
		_ = m.Purge(a) // deal me in: drop the attach-time copy
		v, err := m.Load32(a.DataDriven())
		if err != nil {
			t.Errorf("data-driven load: %v", err)
			return
		}
		dataVal = v
		done = true
	})
	w.RunUntil(2 * time.Second)
	if done {
		t.Fatal("data-driven read completed without any transit")
	}

	// Writer stores and purges: the broadcast satisfies the reader.
	w.Spawn(0, "writer", func(env *Env) {
		m, err := env.Attach(capRW, RW)
		if err != nil {
			t.Errorf("attach rw: %v", err)
			return
		}
		if err := m.Store32(m.Addr(0, 0), 7); err != nil {
			t.Errorf("store: %v", err)
		}
		if err := m.Purge(m.Addr(0, 0).Short()); err != nil {
			t.Errorf("purge: %v", err)
		}
	})
	w.Run()

	if !done {
		t.Fatal("data-driven read never satisfied")
	}
	if dataVal != 7 {
		t.Errorf("data-driven value = %d, want 7", dataVal)
	}
}

func TestBytesReadWrite(t *testing.T) {
	w := fastWorld(t, 2)
	seg, _ := w.CreateSegment("bytes", 1, 0)
	capRW := seg.CapRW()
	msg := []byte("the mether system")

	var got []byte
	w.Spawn(0, "writer", func(env *Env) {
		m, _ := env.Attach(capRW, RW)
		if err := m.Write(m.Addr(0, 100), msg); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	w.Run()
	w.Spawn(1, "reader", func(env *Env) {
		m, _ := env.Attach(capRW.ReadOnly(), RO)
		got = make([]byte, len(msg))
		if err := m.Read(m.Addr(0, 100), got); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	w.Run()
	if string(got) != string(msg) {
		t.Errorf("read %q, want %q", got, msg)
	}
}

func TestDeterministicWorldRuns(t *testing.T) {
	run := func() (time.Duration, uint64) {
		w := NewWorld(Config{Hosts: 2, Pages: 8, Seed: 11})
		defer w.Shutdown()
		seg, _ := w.CreateSegment("d", 1, 0)
		capRW := seg.CapRW()
		for i := 0; i < 2; i++ {
			i := i
			w.Spawn(i, "p", func(env *Env) {
				m, _ := env.Attach(capRW, RW)
				for j := 0; j < 10; j++ {
					_ = m.Store32(m.Addr(0, 0).Short(), uint32(i*100+j))
					env.Compute(time.Millisecond)
				}
			})
		}
		end := w.Run()
		return end, w.NetStats().WireBytes
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Errorf("runs differ: (%v,%d) vs (%v,%d)", e1, b1, e2, b2)
	}
}

func TestAddrPanicsOutsideSegment(t *testing.T) {
	w := fastWorld(t, 2)
	seg, _ := w.CreateSegment("one", 1, 0)
	capRW := seg.CapRW()
	w.Spawn(0, "p", func(env *Env) {
		m, _ := env.Attach(capRW, RW)
		defer func() {
			if recover() == nil {
				t.Error("Addr beyond segment did not panic")
			}
		}()
		_ = m.Addr(5, 0)
	})
	w.Run()
}

func TestMultiPageSegmentsAreDisjoint(t *testing.T) {
	w := fastWorld(t, 2)
	s1, _ := w.CreateSegment("s1", 2, 0)
	s2, _ := w.CreateSegment("s2", 2, 1)
	c1, c2 := s1.CapRW(), s2.CapRW()
	var v1, v2 uint32
	w.Spawn(0, "w1", func(env *Env) {
		m, _ := env.Attach(c1, RW)
		_ = m.Store32(m.Addr(1, 0), 111)
	})
	w.Spawn(1, "w2", func(env *Env) {
		m, _ := env.Attach(c2, RW)
		_ = m.Store32(m.Addr(1, 0), 222)
	})
	w.Run()
	w.Spawn(0, "check", func(env *Env) {
		m1, _ := env.Attach(c1, RO)
		m2, _ := env.Attach(c2, RO)
		v1, _ = m1.Load32(m1.Addr(1, 0))
		v2, _ = m2.Load32(m2.Addr(1, 0))
	})
	w.Run()
	if v1 != 111 || v2 != 222 {
		t.Errorf("segment isolation broken: %d/%d, want 111/222", v1, v2)
	}
}

func TestAttachTapSeesProtocolTraffic(t *testing.T) {
	w := fastWorld(t, 2)
	tap := w.AttachTap(0)
	seg, _ := w.CreateSegment("tapped", 1, 0)
	capRW := seg.CapRW()
	w.Spawn(0, "w", func(env *Env) {
		m, _ := env.Attach(capRW, RW)
		_ = m.Store32(m.Addr(0, 0).Short(), 1)
		_ = m.Purge(m.Addr(0, 0).Short())
	})
	w.Spawn(1, "r", func(env *Env) {
		m, _ := env.Attach(capRW.ReadOnly(), RO)
		_, _ = m.Load32(m.Addr(0, 0).Short())
	})
	w.Run()
	if tap.Len() == 0 {
		t.Fatal("tap recorded nothing")
	}
	counts := tap.CountByType()
	if len(counts) == 0 {
		t.Error("tap decoded no Mether packets")
	}
	if len(tap.PageHistory(0)) == 0 {
		t.Error("page 0 has no wire history")
	}
}

// TestServerIsAHostTask pins what the rest of the tree relies on about
// the user-level server now that it has no coroutine: it is still a
// process of its host (the runners classify CPU by walking Procs), it is
// charged for what it handles, and a quiesced world parks client
// coroutines only. Kernel-server worlds have no server process at all.
func TestServerIsAHostTask(t *testing.T) {
	w := fastWorld(t, 4)
	seg, err := w.CreateSegment("shared", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	capRW := seg.CapRW()
	w.Spawn(0, "writer", func(env *Env) {
		m, _ := env.Attach(capRW, RW)
		_ = m.Store32(m.Addr(0, 0).Short(), 7)
		_ = m.Purge(m.Addr(0, 0).Short())
	})
	for i := 1; i < 4; i++ {
		w.Spawn(i, "reader", func(env *Env) {
			m, _ := env.Attach(capRW.ReadOnly(), RO)
			_, _ = m.Load32(m.Addr(0, 0).Short())
		})
	}
	w.Run()
	for _, name := range w.Kernel().Idle() {
		if strings.Contains(name, "metherd") {
			t.Errorf("a quiesced world has a parked coroutine named %q: the server is a task", name)
		}
	}
	if r := w.Engine().Resumes; r == 0 || r >= w.EventsDispatched() {
		t.Errorf("%d resumes of %d events: the clients are coroutines, the servers are not", r, w.EventsDispatched())
	}
	for i := 0; i < 4; i++ {
		srv := w.Driver(i).Server()
		if srv == nil || !slices.Contains(w.HostMachine(i).Procs(), srv) {
			t.Fatalf("host %d: server %v is not one of the host's processes", i, srv)
		}
		if srv.Name() != "metherd" || srv.Sys() == 0 {
			t.Errorf("host %d: server %q was charged %v sys for the frames it snooped", i, srv.Name(), srv.Sys())
		}
	}

	cfg := Config{Hosts: 2, Pages: 16, Seed: 7}.withDefaults()
	cfg.Core.KernelServer = true
	kw := NewWorld(cfg)
	defer kw.Shutdown()
	for i := 0; i < 2; i++ {
		if srv := kw.Driver(i).Server(); srv != nil || len(kw.HostMachine(i).Procs()) != 0 {
			t.Errorf("kernel-server host %d has a server process %v", i, srv)
		}
	}
}
