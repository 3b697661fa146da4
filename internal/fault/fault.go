// Package fault defines deterministic, virtual-time fault schedules
// for a simulated Mether cluster: host crashes and recoveries, and
// bridge partitions and heals. A Schedule is pure data — a sorted list
// of (time, kind, target) events — that the world layer installs as
// first-class kernel events before a run starts, so a faulted run is
// exactly as deterministic as a healthy one: same seed, same schedule,
// byte-identical report across runs and worker counts.
//
// Randomized schedules (Churn) are pre-drawn at build time from a
// seeded generator, never from the kernel's run-time stream, so adding
// churn to a world does not perturb any other random draw.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the fault event types a World can execute.
type Kind uint8

const (
	// Crash takes a host's NIC down and wipes its driver state (page
	// directory, pending requests, seed ranges) — the model of a power
	// failure. Client processes on the host keep their mappings and
	// simply re-fault after recovery.
	Crash Kind = iota + 1
	// Recover brings a crashed host's NIC back up; the host re-joins
	// cold through the lazy directory attach path.
	Recover
	// Partition takes both ports of a bridge down, splitting the
	// extended LAN into two broadcast domains. Buffered and in-flight
	// frames on the bridge are dropped (counted as PartitionDrops), so
	// a heal never replays pre-partition traffic.
	Partition
	// Heal brings a partitioned bridge's ports back up.
	Heal
)

var kindNames = map[Kind]string{
	Crash:     "crash",
	Recover:   "recover",
	Partition: "partition",
	Heal:      "heal",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Event is one scheduled fault. Host indexes the world's hosts; Bridge
// indexes Topology.Bridges(). Only the field the Kind uses is
// meaningful (Bridge for Partition/Heal, Host for the rest).
type Event struct {
	At     time.Duration
	Kind   Kind
	Host   int
	Bridge int
}

func (e Event) String() string {
	switch e.Kind {
	case Partition, Heal:
		return fmt.Sprintf("%s@%v:b%d", e.Kind, e.At, e.Bridge)
	default:
		return fmt.Sprintf("%s@%v:h%d", e.Kind, e.At, e.Host)
	}
}

// Schedule is an ordered fault plan. The zero value is the empty
// schedule, which a World must execute as a byte-identical no-op.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// Crash appends a host-crash event and returns the schedule for
// chaining.
func (s Schedule) Crash(at time.Duration, host int) Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Crash, Host: host})
	return s
}

// Recover appends a host-recovery event.
func (s Schedule) Recover(at time.Duration, host int) Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Recover, Host: host})
	return s
}

// Partition appends a bridge-partition event.
func (s Schedule) Partition(at time.Duration, bridge int) Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Partition, Bridge: bridge})
	return s
}

// Heal appends a bridge-heal event.
func (s Schedule) Heal(at time.Duration, bridge int) Schedule {
	s.Events = append(s.Events, Event{At: at, Kind: Heal, Bridge: bridge})
	return s
}

// Sorted returns the events in execution order (time, then insertion
// order for ties — sort.SliceStable keeps same-time events in the
// order the schedule listed them, which is part of the determinism
// contract).
func (s Schedule) Sorted() []Event {
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Validate checks every event against the world's shape: host indexes
// in [0, hosts), bridge indexes in [0, bridges), non-negative times.
// It does not check semantic ordering (e.g. a Recover without a prior
// Crash) — the world treats those as no-ops.
func (s Schedule) Validate(hosts, bridges int) error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("fault %d (%s): negative time", i, e)
		}
		switch e.Kind {
		case Crash, Recover:
			if e.Host < 0 || e.Host >= hosts {
				return fmt.Errorf("fault %d (%s): host %d out of range (0..%d)", i, e, e.Host, hosts-1)
			}
		case Partition, Heal:
			if e.Bridge < 0 || e.Bridge >= bridges {
				return fmt.Errorf("fault %d (%s): bridge %d out of range (%d bridges)", i, e, e.Bridge, bridges)
			}
		default:
			return fmt.Errorf("fault %d: unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// Churn builds a randomized crash/recover schedule: every `every`
// interval starting at `start`, for `rounds` rounds, a fresh draw of
// ceil(fraction*hosts) distinct hosts (never host 0, which workloads
// use as the coordinator/segment creator) crashes and recovers
// `downFor` later. The draw is pre-computed from its own seeded
// generator so the schedule is a pure function of the arguments.
func Churn(seed int64, hosts int, fraction float64, start, every, downFor time.Duration, rounds int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	perRound := int(float64(hosts)*fraction + 0.999999)
	if perRound < 1 {
		perRound = 1
	}
	if perRound > hosts-1 {
		perRound = hosts - 1
	}
	var s Schedule
	for r := 0; r < rounds; r++ {
		at := start + time.Duration(r)*every
		picked := make(map[int]bool, perRound)
		for len(picked) < perRound {
			h := 1 + rng.Intn(hosts-1)
			if picked[h] {
				continue
			}
			picked[h] = true
			s = s.Crash(at, h).Recover(at+downFor, h)
		}
	}
	return s
}

// Parse decodes a textual fault spec: semicolon-separated events of
// the form kind@time:target, e.g.
//
//	crash@150ms:h3;recover@400ms:h3;partition@200ms:b0;heal@350ms:b0
//
// Times use Go duration syntax; targets are hN (host index) or bN
// (bridge index).
func Parse(spec string) (Schedule, error) {
	var s Schedule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		at := strings.IndexByte(part, '@')
		colon := strings.IndexByte(part, ':')
		if at < 0 || colon < at {
			return Schedule{}, fmt.Errorf("fault spec %q: want kind@time:target", part)
		}
		kindStr, timeStr, tgt := part[:at], part[at+1:colon], part[colon+1:]
		when, err := time.ParseDuration(timeStr)
		if err != nil {
			return Schedule{}, fmt.Errorf("fault spec %q: bad time: %v", part, err)
		}
		switch kindStr {
		case "crash", "recover":
			h, err := parseTarget(tgt, 'h')
			if err != nil {
				return Schedule{}, fmt.Errorf("fault spec %q: %v", part, err)
			}
			if kindStr == "crash" {
				s = s.Crash(when, h)
			} else {
				s = s.Recover(when, h)
			}
		case "partition", "heal":
			b, err := parseTarget(tgt, 'b')
			if err != nil {
				return Schedule{}, fmt.Errorf("fault spec %q: %v", part, err)
			}
			if kindStr == "partition" {
				s = s.Partition(when, b)
			} else {
				s = s.Heal(when, b)
			}
		default:
			return Schedule{}, fmt.Errorf("fault spec %q: unknown kind %q", part, kindStr)
		}
	}
	return s, nil
}

func parseTarget(tgt string, prefix byte) (int, error) {
	if len(tgt) < 2 || tgt[0] != prefix {
		return 0, fmt.Errorf("target %q: want %c<index>", tgt, prefix)
	}
	n, err := strconv.Atoi(tgt[1:])
	if err != nil {
		return 0, fmt.Errorf("target %q: %v", tgt, err)
	}
	return n, nil
}

// String renders the schedule back in Parse's spec syntax (events in
// listed order, not sorted).
func (s Schedule) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}
