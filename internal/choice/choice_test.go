package choice

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestTapeDecodes: a choice in [0, n) is the next ⌈log₂₅₆ n⌉ bytes,
// big-endian, mod n, zeros past the end; n 1 reads nothing.
func TestTapeDecodes(t *testing.T) {
	for _, row := range []struct {
		in      string
		n, want []int
	}{
		{"", []int{1, 2, 256, 1 << 20}, []int{0, 0, 0, 0}},
		{"\x05\x07", []int{1, 3, 256}, []int{0, 2, 7}},
		{"\x01\x02\x03", []int{257, 256}, []int{258 % 257, 3}},
		{"\xff\xff", []int{300}, []int{65535 % 300}},
		{"\x01\x02", []int{1 << 20}, []int{0x010200}},
		{"\x01\x00\x00\x00\x05", []int{1 << 34}, []int{1<<32 + 5}},
	} {
		tp := New([]byte(row.in))
		var got []int
		for _, n := range row.n {
			got = append(got, tp.Choose(n))
		}
		if !slices.Equal(got, row.want) {
			t.Errorf("%q read as %v: %v, want %v", row.in, row.n, got, row.want)
		}
	}
}

// TestSeededReplays: a seeded tape draws what rand.Intn draws, and its
// bytes, behind any prefix Put writes, replay every choice.
func TestSeededReplays(t *testing.T) {
	var ns []int
	for i := 0; i < 200; i++ {
		ns = append(ns, []int{1, 2, 3, 255, 256, 257, 1000, 1 << 16, 1<<16 + 1, 1 << 34}[i%10])
	}
	for seed := int64(0); seed < 20; seed++ {
		tp, intn := Seeded(seed), rand.New(rand.NewSource(seed)).Intn
		var want, got []int
		for _, n := range ns {
			want, got = append(want, intn(n)), append(got, tp.Choose(n))
		}
		replay := New(append(Put(Put(nil, 4, 3), 300, 299), tp.Bytes()...))
		replayed := []int{replay.Choose(4), replay.Choose(300)}
		for _, n := range ns {
			replayed = append(replayed, replay.Choose(n))
		}
		if !slices.Equal(got, want) || !slices.Equal(replayed, append([]int{3, 299}, want...)) {
			t.Fatalf("seed %d drew %v and replayed %v, want %v", seed, got, replayed, want)
		}
	}
}

// TestShrinkReachesMinimum: a run fails when a choice of 100 or more is
// followed by a 7; every tape it fails on shrinks to the least, {100, 7}.
func TestShrinkReachesMinimum(t *testing.T) {
	run := func(tp *Tape) error {
		big := false
		for i := 0; i < 12; i++ {
			v := tp.Choose(256)
			if big && v == 7 {
				return errors.New("big then 7")
			}
			big = big || v >= 100
		}
		return nil
	}
	for seed := int64(0); seed < 50; seed++ {
		in := rand.New(rand.NewSource(seed))
		b := make([]byte, 12)
		in.Read(b)
		b[in.Intn(6)], b[6+in.Intn(6)] = byte(100+in.Intn(156)), 7
		if got, err := Shrink(b, run); string(got) != "\x64\x07" || err == nil {
			t.Fatalf("%q shrank to %q (%v), want \"d\\a\"", b, got, err)
		}
	}
	if got, err := Shrink([]byte{1, 2}, run); string(got) != "\x01\x02" || err != nil {
		t.Errorf("a passing tape came back as %q, %v", got, err)
	}
}

// TestShrinkCountsPanics: a panic is a failure like any other.
func TestShrinkCountsPanics(t *testing.T) {
	got, err := Shrink([]byte{9, 200, 3}, func(tp *Tape) error {
		for i := 0; i < 3; i++ {
			if tp.Choose(256) >= 50 {
				panic("too big")
			}
		}
		return nil
	})
	if string(got) != "\x32" || err == nil || !strings.Contains(err.Error(), "panic: too big") {
		t.Errorf("shrank to %q, %v; want \"2\" and the panic", got, err)
	}
	if s := Explain("FuzzX", []byte{9}, func(tp *Tape) error { return errors.New("no") }); !strings.Contains(s,
		"1 to 0 tape bytes, failing with: no\nreplayed by testdata/fuzz/FuzzX/<name> holding:\ngo test fuzz v1\n[]byte(\"\")\n") {
		t.Errorf("Explain said %q", s)
	}
}

func TestDiverge(t *testing.T) {
	for _, row := range []struct {
		a, b string
		want int
	}{{"", "", -1}, {"abc", "abc", -1}, {"abc", "abd", 2}, {"ab", "abc", 2}, {"abc", "ab", 2}, {"x", "", 0}} {
		if got := Diverge([]byte(row.a), []byte(row.b)); got != row.want {
			t.Errorf("Diverge(%q, %q) = %d, want %d", row.a, row.b, got, row.want)
		}
	}
}
