package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func sampleFrame() *Frame {
	return &Frame{
		Kind: KindPage,
		Tag:  Tag{Producer: 2, Thread: 1, Seq: 7},
		Types: []TypeBinding{
			{Code: 64, Name: "Employee"},
			{Code: 65, Name: "DeptTotal"},
		},
		Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01},
	}
}

// goldenSample is the byte-exact encoding of sampleFrame. If this test
// breaks, the wire format changed: bump Version, don't edit the golden.
var goldenSample = []byte{
	'P', 'C', 'W', // magic
	1,          // version
	KindPage,   // kind
	0, 0, 0, 2, // producer
	0, 0, 0, 1, // thread
	0, 0, 0, 7, // seq
	0, 0, 0, 2, // type-table count
	0, 0, 0, 64, 0, 8, 'E', 'm', 'p', 'l', 'o', 'y', 'e', 'e',
	0, 0, 0, 65, 0, 9, 'D', 'e', 'p', 't', 'T', 'o', 't', 'a', 'l',
	0, 0, 0, 6, // payload length
	0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01,
}

func TestGoldenBytes(t *testing.T) {
	got, err := Append(nil, sampleFrame())
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if !bytes.Equal(got, goldenSample) {
		t.Fatalf("encoding drifted from golden bytes\n got: % x\nwant: % x", got, goldenSample)
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFrame()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Kind != f.Kind || got.Tag != f.Tag {
		t.Fatalf("header mismatch: got %+v want %+v", got, f)
	}
	if len(got.Types) != len(f.Types) {
		t.Fatalf("type table: got %d entries want %d", len(got.Types), len(f.Types))
	}
	for i := range f.Types {
		if got.Types[i] != f.Types[i] {
			t.Fatalf("type[%d]: got %+v want %+v", i, got.Types[i], f.Types[i])
		}
	}
	// The payload must come back byte-identical — pages are never
	// reserialized across the boundary.
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload not byte-identical:\n got % x\nwant % x", got.Payload, f.Payload)
	}
	if buf.Len() != 0 {
		t.Fatalf("Read left %d trailing bytes", buf.Len())
	}
}

func TestRoundTripEmpty(t *testing.T) {
	f := &Frame{Kind: KindControl, Payload: nil}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Kind != KindControl || len(got.Types) != 0 || len(got.Payload) != 0 {
		t.Fatalf("empty control frame round-trip: %+v", got)
	}
}

func TestCleanEOF(t *testing.T) {
	_, err := Read(bytes.NewReader(nil), 0)
	if err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestTruncated(t *testing.T) {
	full := goldenSample
	// Every strict prefix must fail cleanly (io.EOF for length 0,
	// io.ErrUnexpectedEOF otherwise), never panic.
	for n := 0; n < len(full); n++ {
		_, err := Read(bytes.NewReader(full[:n]), 0)
		if err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
		if n == 0 {
			if err != io.EOF {
				t.Fatalf("prefix 0: got %v, want io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix of %d bytes: got %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestCorrupt(t *testing.T) {
	mutate := func(off int, b byte) []byte {
		c := append([]byte(nil), goldenSample...)
		c[off] = b
		return c
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad magic", mutate(0, 'X'), ErrBadMagic},
		{"bad version", mutate(3, 99), ErrBadVersion},
		{"bad kind", mutate(4, 0), ErrBadKind},
		{"huge type table", mutate(17, 0xFF), ErrTooLarge},
		{"payload over limit", goldenSample, ErrTooLarge}, // with limit 1 below
	}
	for _, tc := range cases {
		limit := 0
		if tc.name == "payload over limit" {
			limit = 1
		}
		_, err := Read(bytes.NewReader(tc.in), limit)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := Append(nil, &Frame{Kind: 9}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("bad kind: got %v", err)
	}
	big := &Frame{Kind: KindPage, Types: make([]TypeBinding, MaxTypeTable+1)}
	if _, err := Append(nil, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized type table: got %v", err)
	}
}

func FuzzRead(f *testing.F) {
	f.Add(goldenSample)
	f.Add([]byte{})
	f.Add([]byte{'P', 'C', 'W', 1, KindControl})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	frame := make([]byte, 256) // a recycled page frame: stale bytes included
	for i := range frame {
		frame[i] = 0xA5
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success the re-encoding must round-trip.
		fr, err := Read(bytes.NewReader(data), 1<<20)
		// The caller-supplied payload path must decode the same frame or
		// fail with the same error, asked only for a page frame's payload
		// and only for a length within the limit.
		fi, erri := ReadInto(bytes.NewReader(data), 1<<20, func(n int) []byte {
			if n > 1<<20 {
				t.Fatalf("payload func asked for %d bytes past the limit", n)
			}
			if n > len(frame) {
				return nil
			}
			return frame
		})
		if (err == nil) != (erri == nil) || err != nil && err.Error() != erri.Error() {
			t.Fatalf("Read error %v, ReadInto error %v", err, erri)
		}
		if err != nil {
			return
		}
		if fi.Kind != fr.Kind || fi.Tag != fr.Tag || !reflect.DeepEqual(fi.Types, fr.Types) || !bytes.Equal(fi.Payload, fr.Payload) {
			t.Fatalf("ReadInto decoded %+v, Read %+v", fi, fr)
		}
		if n := len(fi.Payload); n > 0 && (&fi.Payload[0] == &frame[0]) != (fr.Kind == KindPage && n <= len(frame)) {
			t.Fatalf("kind %d payload of %d bytes: in the supplied frame %v", fr.Kind, n, &fi.Payload[0] == &frame[0])
		}
		enc, err := Append(nil, fr)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		fr2, err := Read(bytes.NewReader(enc), 1<<20)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Tag != fr.Tag || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", fr, fr2)
		}
	})
}
