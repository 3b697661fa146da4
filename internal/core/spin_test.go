package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mether/internal/ethernet"
	"mether/internal/host"
	"mether/internal/vm"
)

const spinEvery = 50 * time.Microsecond

// TestSpin32MapOutMidSpin: a page unmapped by a timer in the middle of a
// spin, between two looks that find it resident, ends the spin with
// ErrNotMapped at the instant the written Load loop's next look is
// refused, after as many values — the one mapping flag a look re-checks
// with the page it kept from its first.
func TestSpin32MapOutMidSpin(t *testing.T) {
	run := func(spin bool) string {
		c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
		c.drivers[0].CreatePage(0)
		addr := NewAddr(0, 0).Short()
		d := c.drivers[1]
		looks := 0
		again := func(uint32) bool { looks++; return true }
		var err error
		var at time.Duration
		c.spawn(1, "reader", func(p *host.Proc) {
			if err = d.MapIn(p, RO, 0); err != nil {
				return
			}
			if spin {
				var s Poll
				_, err = d.Spin32(p, &s, RO, addr, spinEvery, again)
			} else {
				for {
					p.UseUser(spinEvery)
					v, e := d.Load(p, RO, addr, 4)
					if e != nil || !again(uint32(v)) {
						err = e
						break
					}
				}
			}
			at = p.Now()
		})
		c.k.After(20*time.Millisecond+7*time.Microsecond-c.k.Now(), "map out", func() { d.MapOut(RO, 0) })
		c.k.RunUntil(time.Second)
		if !errors.Is(err, ErrNotMapped) || looks < 100 {
			t.Errorf("spin %v: %v after %d looks at %v, want ErrNotMapped after at least 100", spin, err, looks, at)
		}
		return fmt.Sprintf("%v after %d looks at %v", err, looks, at)
	}
	if got, want := run(true), run(false); got != want {
		t.Errorf("Spin32 ended with %s, the Load loop with %s", got, want)
	}
}

// TestSpin32KeepsNoPageAcrossCalls: a Poll reused for a spin on another
// page looks at that page from its first look, not at the one the last
// spin kept.
func TestSpin32KeepsNoPageAcrossCalls(t *testing.T) {
	c := newTestCluster(t, 2, ethernet.DefaultParams(), fastConfig(4))
	d0, d1 := c.drivers[0], c.drivers[1]
	d0.CreatePage(0)
	d0.CreatePage(1)
	c.spawn(0, "writer", func(p *host.Proc) {
		if err := d0.MapIn(p, RW, 1); err != nil {
			t.Error(err)
			return
		}
		if err := d0.Store(p, RW, NewAddr(1, 0).Short(), 4, 7); err != nil {
			t.Error(err)
		}
	})
	var seen []uint32
	c.spawn(1, "reader", func(p *host.Proc) {
		p.SleepFor(10 * time.Millisecond)
		var s Poll
		for page := 0; page < 2; page++ {
			if err := d1.MapIn(p, RO, vm.PageID(page)); err != nil {
				t.Error(err)
				return
			}
			looks := 0
			v, err := d1.Spin32(p, &s, RO, NewAddr(vm.PageID(page), 0).Short(), spinEvery, func(uint32) bool {
				looks++
				return looks < 3
			})
			if err != nil {
				t.Error(err)
				return
			}
			seen = append(seen, v)
		}
	})
	c.k.RunUntil(time.Second)
	if fmt.Sprint(seen) != "[0 7]" {
		t.Errorf("spins on pages 0 and 1 ended on %v, want [0 7]", seen)
	}
}
