package trace

import (
	"strings"
	"testing"

	"mether/internal/ethernet"
	"mether/internal/medium"
	"mether/internal/proto"
	"mether/internal/sim"
	"mether/internal/vm"
)

func sendPacket(t *testing.T, nic medium.Port, pkt proto.Packet) {
	t.Helper()
	buf, err := proto.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	nic.Send(medium.Broadcast, buf)
}

func TestTapDecodesProtocolExchange(t *testing.T) {
	k := sim.New(1)
	bus := ethernet.NewBus(k, ethernet.DefaultParams())
	a := bus.AttachPort("a", nil)
	b := bus.AttachPort("b", nil)
	log := Tap(k, bus, 0)

	sendPacket(t, a, proto.Packet{Type: proto.TypeRequest, Page: 3, Short: true, Consistent: true, From: 0, OwnerTo: proto.NoOwner})
	sendPacket(t, b, proto.Packet{Type: proto.TypeData, Page: 3, Short: true, From: 1, OwnerTo: 0, Gen: 9, Data: make([]byte, vm.ShortSize)})
	k.Run()
	k.Shutdown()

	if log.Len() != 2 {
		t.Fatalf("tap recorded %d entries, want 2", log.Len())
	}
	e0, e1 := log.Entries()[0], log.Entries()[1]
	if e0.Type != proto.TypeRequest || !e0.Consistent || e0.Page != 3 {
		t.Errorf("entry 0 = %+v", e0)
	}
	if e1.Type != proto.TypeData || e1.OwnerTo != 0 || e1.Gen != 9 {
		t.Errorf("entry 1 = %+v", e1)
	}
	if e1.At <= e0.At {
		t.Error("timestamps not ordered")
	}
	if c := log.CountByType(); c[proto.TypeRequest] != 1 || c[proto.TypeData] != 1 {
		t.Errorf("CountByType = %v", c)
	}
}

func TestTapRendering(t *testing.T) {
	k := sim.New(1)
	bus := ethernet.NewBus(k, ethernet.DefaultParams())
	a := bus.AttachPort("a", nil)
	log := Tap(k, bus, 0)
	sendPacket(t, a, proto.Packet{Type: proto.TypeData, Page: 7, Short: true, From: 0, OwnerTo: 1, Gen: 4, Data: make([]byte, vm.ShortSize)})
	k.Run()
	k.Shutdown()
	s := log.String()
	for _, want := range []string{"DATA", "page 7", "short", "owner->host1", "gen 4"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace %q missing %q", s, want)
		}
	}
}

func TestTapMalformedFrames(t *testing.T) {
	k := sim.New(1)
	bus := ethernet.NewBus(k, ethernet.DefaultParams())
	a := bus.AttachPort("a", nil)
	log := Tap(k, bus, 0)
	a.Send(medium.Broadcast, []byte{1, 2, 3})
	k.Run()
	k.Shutdown()
	if log.Len() != 1 || !log.Entries()[0].Malformed {
		t.Errorf("malformed frame not recorded: %+v", log.Entries())
	}
	if !strings.Contains(log.String(), "MALFORMED") {
		t.Error("rendering misses MALFORMED marker")
	}
}

func TestTapBound(t *testing.T) {
	k := sim.New(1)
	bus := ethernet.NewBus(k, ethernet.DefaultParams())
	a := bus.AttachPort("a", nil)
	log := Tap(k, bus, 3)
	for i := 0; i < 10; i++ {
		sendPacket(t, a, proto.Packet{Type: proto.TypeRequest, Page: vm.PageID(i), From: 0, OwnerTo: proto.NoOwner})
	}
	k.Run()
	k.Shutdown()
	if log.Len() != 3 {
		t.Errorf("bounded tap holds %d entries, want 3", log.Len())
	}
}

func TestPageHistory(t *testing.T) {
	k := sim.New(1)
	bus := ethernet.NewBus(k, ethernet.DefaultParams())
	a := bus.AttachPort("a", nil)
	log := Tap(k, bus, 0)
	for _, pg := range []vm.PageID{1, 2, 1, 3, 1} {
		sendPacket(t, a, proto.Packet{Type: proto.TypeRequest, Page: pg, From: 0, OwnerTo: proto.NoOwner})
	}
	k.Run()
	k.Shutdown()
	h := log.PageHistory(1)
	if len(h) != 3 {
		t.Errorf("page 1 history has %d entries, want 3", len(h))
	}
	hNone := log.PageHistory(99)
	if len(hNone) != 0 {
		t.Error("history for untouched page should be empty")
	}
}
