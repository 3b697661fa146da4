package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"mether/internal/vm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  Packet
	}{
		{
			name: "short request",
			pkt:  Packet{Type: TypeRequest, Page: 7, Short: true, Consistent: true, From: 2, OwnerTo: NoOwner, ReqID: 99},
		},
		{
			name: "full request",
			pkt:  Packet{Type: TypeRequest, Page: MaxPages - 1, From: 1, OwnerTo: NoOwner},
		},
		{
			name: "large-cluster host ids",
			pkt:  Packet{Type: TypeRequest, Page: 2, From: 255, OwnerTo: MaxHostID, ReqID: 7},
		},
		{
			name: "short data with ownership",
			pkt:  Packet{Type: TypeData, Page: 3, Short: true, From: 0, OwnerTo: 1, Gen: 42, Data: make([]byte, vm.ShortSize)},
		},
		{
			name: "full data broadcast",
			pkt:  Packet{Type: TypeData, Page: 5, From: 1, OwnerTo: NoOwner, Gen: 7, Data: bytes.Repeat([]byte{0xAA}, vm.PageSize)},
		},
		{
			name: "rest request",
			pkt:  Packet{Type: TypeRestRequest, Page: 9, From: 3, OwnerTo: NoOwner, ReqID: 5},
		},
		{
			name: "rest data",
			pkt:  Packet{Type: TypeRestData, Page: 9, From: 0, OwnerTo: NoOwner, Gen: 1, Data: make([]byte, RestLen)},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc, err := Encode(tt.pkt)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.Type != tt.pkt.Type || got.Page != tt.pkt.Page ||
				got.Short != tt.pkt.Short || got.Consistent != tt.pkt.Consistent ||
				got.From != tt.pkt.From || got.OwnerTo != tt.pkt.OwnerTo ||
				got.ReqID != tt.pkt.ReqID || got.Gen != tt.pkt.Gen {
				t.Errorf("header mismatch:\n got %+v\nwant %+v", got, tt.pkt)
			}
			if !bytes.Equal(got.Data, tt.pkt.Data) {
				t.Error("payload mismatch")
			}
		})
	}
}

func TestEncodedSizes(t *testing.T) {
	// The calibration in EXPERIMENTS.md depends on these wire sizes.
	req, err := Encode(Packet{Type: TypeRequest, OwnerTo: NoOwner})
	if err != nil {
		t.Fatal(err)
	}
	if len(req) != HeaderLen {
		t.Errorf("request size %d, want %d", len(req), HeaderLen)
	}
	short, err := Encode(Packet{Type: TypeData, Short: true, OwnerTo: NoOwner, Data: make([]byte, vm.ShortSize)})
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != HeaderLen+vm.ShortSize {
		t.Errorf("short data size %d, want %d", len(short), HeaderLen+vm.ShortSize)
	}
	full, err := Encode(Packet{Type: TypeData, OwnerTo: NoOwner, Data: make([]byte, vm.PageSize)})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != HeaderLen+vm.PageSize {
		t.Errorf("full data size %d, want %d", len(full), HeaderLen+vm.PageSize)
	}
}

func TestEncodeRejectsBadPayloads(t *testing.T) {
	cases := []Packet{
		{Type: TypeData, Short: true, Data: make([]byte, 31)},
		{Type: TypeData, Data: make([]byte, 100)},
		{Type: TypeRequest, Data: []byte{1}},
		{Type: TypeRestData, Data: make([]byte, 10)},
		{Type: Type(99)},
		// Page ids beyond the 16-bit wire field must be rejected, not
		// silently truncated onto another page.
		{Type: TypeRequest, Page: MaxPages},
		{Type: TypeRequest, Page: 1 << 20},
	}
	for _, p := range cases {
		if _, err := Encode(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("Encode(%v) err = %v, want ErrMalformed", p.Type, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0}, HeaderLen), // bad magic
		append([]byte{magic, 9}, make([]byte, 14)...),           // bad version
		append([]byte{magic, version, 99}, make([]byte, 13)...), // bad type
	}
	for i, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

func TestDecodeRejectsTruncatedPayload(t *testing.T) {
	enc, err := Encode(Packet{Type: TypeData, Short: true, OwnerTo: NoOwner, Data: make([]byte, vm.ShortSize)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc[:len(enc)-5]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated decode err = %v, want ErrMalformed", err)
	}
}

func TestNoOwnerRoundTrip(t *testing.T) {
	enc, err := Encode(Packet{Type: TypeData, Short: true, OwnerTo: NoOwner, Data: make([]byte, vm.ShortSize)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.OwnerTo != NoOwner {
		t.Errorf("OwnerTo = %d, want NoOwner", got.OwnerTo)
	}
}

// Property: any header field combination survives an encode/decode cycle.
func TestHeaderRoundTripProperty(t *testing.T) {
	prop := func(page uint16, from, ownerTo int16, reqID uint16, gen uint32, short, consistent, isReq bool) bool {
		p := Packet{
			Page: vm.PageID(page), From: from, OwnerTo: ownerTo,
			ReqID: reqID, Short: short, Consistent: consistent,
		}
		if isReq {
			p.Type = TypeRequest
		} else {
			p.Type = TypeData
			p.Gen = gen
			if short {
				p.Data = make([]byte, vm.ShortSize)
			} else {
				p.Data = make([]byte, vm.PageSize)
			}
		}
		enc, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return got.Page == p.Page && got.From == p.From && got.OwnerTo == p.OwnerTo &&
			got.ReqID == p.ReqID && got.Short == p.Short && got.Consistent == p.Consistent &&
			got.Gen == p.Gen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeMalformedTable walks every malformed-input class with the
// reason each should fail: bad magic, wrong version, unknown type,
// truncated header, and payload length mismatches for every packet type.
func TestDecodeMalformedTable(t *testing.T) {
	for _, tt := range malformedTable(t) {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.b); !errors.Is(err, ErrMalformed) {
				t.Errorf("Decode(%q) err = %v, want ErrMalformed", tt.name, err)
			}
		})
	}
}

type namedDatagram struct {
	name string
	b    []byte
}

// wellFormed is one valid datagram of each shape the servers send.
func wellFormed(t testing.TB) (short, req, rest []byte) {
	t.Helper()
	var err error
	if short, err = Encode(Packet{Type: TypeData, Short: true, OwnerTo: NoOwner, Data: make([]byte, vm.ShortSize)}); err != nil {
		t.Fatal(err)
	}
	if req, err = Encode(Packet{Type: TypeRequest, OwnerTo: NoOwner}); err != nil {
		t.Fatal(err)
	}
	if rest, err = Encode(Packet{Type: TypeRestData, OwnerTo: NoOwner, Data: make([]byte, RestLen)}); err != nil {
		t.Fatal(err)
	}
	return short, req, rest
}

// malformedTable is every malformed-input class, for the table test and
// as FuzzDecode's seed corpus.
func malformedTable(t testing.TB) []namedDatagram {
	goodShort, goodReq, goodRest := wellFormed(t)
	corrupt := func(b []byte, off int, v byte) []byte {
		out := append([]byte(nil), b...)
		out[off] = v
		return out
	}
	return []namedDatagram{
		{"empty", nil},
		{"one byte", []byte{magic}},
		{"bad magic", corrupt(goodReq, 0, 0x00)},
		{"bad version", corrupt(goodReq, 1, version+1)},
		{"unknown type zero", corrupt(goodReq, 2, 0)},
		{"unknown type high", corrupt(goodReq, 2, 200)},
		{"request with payload", append(append([]byte(nil), goodReq...), 0xFF)},
		{"short data truncated payload", goodShort[:len(goodShort)-1]},
		{"short data extra payload", append(append([]byte(nil), goodShort...), 0)},
		{"short flag cleared on short payload", corrupt(goodShort, 3, 0)},
		{"rest data truncated", goodRest[:len(goodRest)-7]},
		{"rest request with payload", corrupt(goodRest, 2, byte(TypeRestRequest))},
	}
}

// FuzzDecode: wire bytes are input from outside the program. Whatever
// they are, Decode returns a packet or ErrMalformed and never panics,
// and a datagram that decodes is one the encoder accepts and reproduces:
// it passes Validate and comes back unchanged from AppendEncode then
// Decode. The corpus is the malformed table, every truncation of a
// header and one well-formed datagram of each shape (a request with
// redundant-fetch targets among them); `go test` runs those, `make
// fuzz` mutates them.
func FuzzDecode(f *testing.F) {
	for _, tt := range malformedTable(f) {
		f.Add(tt.b)
	}
	short, req, rest := wellFormed(f)
	for n := 0; n < HeaderLen; n++ {
		f.Add(short[:n])
	}
	f.Add(short)
	f.Add(rest)
	f.Add(AppendTargets(req, []int16{1, 2, MaxHostID}))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("Decode error %v is not ErrMalformed", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded packet %+v fails Validate: %v", p, err)
		}
		enc, err := AppendEncode(nil, p)
		if err != nil {
			t.Fatalf("decoded packet %+v does not encode: %v", p, err)
		}
		q, err := Decode(enc)
		if err != nil || !bytes.Equal(q.Data, p.Data) {
			t.Fatalf("re-decode of %+v: %+v, err %v", p, q, err)
		}
		p.Data, q.Data = nil, nil
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the header: %+v -> %+v", p, q)
		}
	})
}

// TestDecodeTruncatedHeaderEveryLength rejects every sub-header prefix
// of a valid packet.
func TestDecodeTruncatedHeaderEveryLength(t *testing.T) {
	enc, err := Encode(Packet{Type: TypeData, Short: true, OwnerTo: NoOwner, Data: make([]byte, vm.ShortSize)})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < HeaderLen; n++ {
		if _, err := Decode(enc[:n]); !errors.Is(err, ErrMalformed) {
			t.Errorf("Decode of %d-byte prefix: err = %v, want ErrMalformed", n, err)
		}
	}
}

// TestGoldenHeaderLayout pins the wire layout byte for byte; the header
// format is a compatibility surface for traces and calibration.
func TestGoldenHeaderLayout(t *testing.T) {
	enc, err := Encode(Packet{
		Type: TypeRequest, Page: 0x0102, Short: true, Consistent: true,
		From: 0x0304, OwnerTo: NoOwner, ReqID: 0xBEEF, Gen: 0x0A0B0C0D,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		magic, version, byte(TypeRequest), flagShort | flagConsist,
		0x02, 0x01, // page, little-endian (16-bit since v2)
		0x04, 0x03, // from, little-endian (16-bit since v2)
		0xFF, 0xFF, // ownerTo (NoOwner = -1, 16-bit since v2)
		0xEF, 0xBE, // reqID, little-endian
		0x0D, 0x0C, 0x0B, 0x0A, // gen, little-endian
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("header layout drifted:\n got %x\nwant %x", enc, want)
	}
}

// TestAppendEncodeReusesScratch pins the zero-allocation encode path:
// encoding into a scratch buffer's capacity matches Encode byte for byte
// and keeps the same backing array.
func TestAppendEncodeReusesScratch(t *testing.T) {
	pkt := Packet{Type: TypeData, Page: 9, Short: true, From: 1, OwnerTo: NoOwner, Gen: 3, Data: make([]byte, vm.ShortSize)}
	fresh, err := Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, HeaderLen+vm.PageSize)
	out, err := AppendEncode(scratch[:0], pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, fresh) {
		t.Errorf("AppendEncode differs from Encode:\n got %x\nwant %x", out, fresh)
	}
	if &out[0] != &scratch[:1][0] {
		t.Error("AppendEncode reallocated despite sufficient scratch capacity")
	}
}

// Property: Decode never panics on random input.
func TestDecodeNeverPanics(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
