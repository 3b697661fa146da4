// Package choice is the tape the randomized specs of internal/sim,
// internal/medium and internal/host draw their scripts from, in their
// tests. A generator asks a Tape for each choice in turn, and the tape
// reads it from bytes, or draws it from a seed and records the bytes that
// read back to it. So a seed, a fuzz input and a shrunk counterexample are
// one byte string, and Shrink makes a failing one small without knowing
// the generator (the Hypothesis reducer: MacIver and Donaldson, ECOOP
// 2020).
package choice

import (
	"fmt"
	"math/rand"
)

// Tape is a sequence of choices.
type Tape struct {
	b   []byte
	pos int        // bytes read so far
	rng *rand.Rand // draws each choice past the end of b, if set
}

// New returns a tape that reads its choices from b.
func New(b []byte) *Tape { return &Tape{b: b} }

// Seeded returns a tape that draws each choice as
// rand.New(rand.NewSource(seed)).Intn does and records it.
func Seeded(seed int64) *Tape { return &Tape{rng: rand.New(rand.NewSource(seed))} }

// Choose returns a choice in [0, n), n > 0, read as the next ⌈log₂₅₆ n⌉
// bytes big-endian, mod n, zeros past the end.
func (t *Tape) Choose(n int) int {
	if t.rng != nil && t.pos == len(t.b) {
		v := t.rng.Intn(n)
		t.b = Put(t.b, n, v)
		t.pos = len(t.b)
		return v
	}
	v := 0
	for m := n - 1; m > 0; m >>= 8 {
		v <<= 8
		if t.pos < len(t.b) {
			v |= int(t.b[t.pos])
			t.pos++
		}
	}
	return v % n
}

// Bytes returns the bytes the choices so far were read from.
func (t *Tape) Bytes() []byte { return t.b[:t.pos] }

// Put appends the bytes a tape reads choice v in [0, n) from.
func Put(b []byte, n, v int) []byte {
	if n <= 1 {
		return b
	}
	return append(Put(b, (n-1)>>8+1, v>>8), byte(v))
}

// Shrink re-runs b, a tape run fails on, with edits, and keeps each edit
// under which run still fails, a panic included: it cuts the tail,
// deletes blocks of 8, 4, 2 and 1 bytes, zeroes bytes and lowers them,
// until no edit helps. It returns the shrunk tape, from which no single
// block deletion still fails, and its failure; b itself if run passes.
func Shrink(b []byte, run func(*Tape) error) ([]byte, error) {
	var err error
	shrunk := false
	edit := func(c []byte) bool { // keeps c, cut to what its run read, if run fails on it
		t := New(c)
		e := Run(t, run)
		if e != nil {
			b, err, shrunk = t.Bytes(), e, true
		}
		return e != nil
	}
	if !edit(b) {
		return b, nil
	}
	lower := func(i, v int) bool {
		c := append([]byte(nil), b...)
		c[i] = byte(v)
		return edit(c)
	}
	for shrunk {
		shrunk = false
		for k := len(b) / 2; k > 0; k /= 2 {
			for k <= len(b) && edit(b[:len(b)-k]) {
			}
		}
		for _, k := range []int{8, 4, 2, 1} {
			for i := len(b) - k; i >= 0; i-- {
				if i+k <= len(b) {
					edit(append(b[:i:i], b[i+k:]...))
				}
			}
		}
		for i := 0; i < len(b); i++ {
			if b[i] == 0 || lower(i, 0) {
				continue
			}
			for lo, hi := 0, int(b[i]); lo+1 < hi && i < len(b); { // bisect: lo passed, hi fails
				if mid := (lo + hi) / 2; lower(i, mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
		}
	}
	return b, err
}

// Run runs run on t and returns its failure, a panic included.
func Run(t *Tape, run func(*Tape) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(t)
}

// Explain shrinks b, a tape run fails on, and renders the shrunk failure
// with the corpus file that replays it through the fuzz target.
func Explain(target string, b []byte, run func(*Tape) error) string {
	s, err := Shrink(b, run)
	return fmt.Sprintf("shrunk from %d to %d tape bytes, failing with: %v\n"+
		"replayed by testdata/fuzz/%s/<name> holding:\ngo test fuzz v1\n[]byte(%q)\n", len(b), len(s), err, target, s)
}

// Diverge returns the first index at which a and b differ, or -1.
func Diverge[T comparable](a, b []T) int {
	for i := range a {
		if i == len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return -1
}
