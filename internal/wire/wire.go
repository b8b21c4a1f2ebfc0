// Package wire defines PC's network frame format — the process boundary's
// byte-level contract (paper §2/Appendix D: master and worker front-end/
// backend run as separate OS processes connected by sockets).
//
// The format exists because of what it does NOT do: a sealed page is
// already its own wire representation (the zero-serialization object
// model), so a page frame is a fixed header, the page's exchange tag, a
// type-code table binding the codes embedded in the page's object headers
// to type names, and then the page's occupied bytes written exactly as they
// sit in memory. Encode followed by decode hands back a byte-identical
// payload; there is no marshal step for page contents on either side.
//
// Frame layout (all integers big-endian):
//
//	offset  size  field
//	0       3     magic "PCW"
//	3       1     version (1)
//	4       1     kind (KindPage | KindControl)
//	5       4     producer  (exchange tag; zero for non-exchange traffic)
//	9       4     thread
//	13      4     seq
//	17      4     type-table entry count N
//	21      ...   N × { code u32, nameLen u16, name bytes }
//	...     4     payload length L
//	...     L     payload (page bytes verbatim, or a control message)
//
// Control frames reuse the same envelope with KindControl and a JSON
// payload — the master↔worker control protocol (internal/procwork) rides
// them, so one codec, one length-prefix discipline, and one set of
// truncation/corruption errors covers every byte that crosses the boundary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Version is the frame format version this package speaks.
const Version = 1

// Frame kinds.
const (
	// KindPage carries a sealed page's bytes plus its exchange tag and
	// type-code table.
	KindPage = 1
	// KindControl carries a control-protocol message (JSON payload).
	KindControl = 2
)

// magic is the 3-byte frame preamble; the fourth header byte is the
// version, so "bad magic" and "unsupported version" stay distinct errors.
var magic = [3]byte{'P', 'C', 'W'}

// Limits a decoder enforces before allocating (DoS hygiene: a corrupt or
// hostile length prefix must produce an error, not an OOM).
const (
	// MaxTypeTable bounds the type-table entry count.
	MaxTypeTable = 1 << 12
	// maxTypeName bounds one type name's length.
	maxTypeName = 1 << 10
	// DefaultMaxPayload bounds the payload length when the reader passes
	// no explicit limit (1 GiB — far above any page size in use).
	DefaultMaxPayload = 1 << 30
)

// Decode errors. Truncated input surfaces as io.ErrUnexpectedEOF (wrapped);
// structural problems surface as one of these (wrapped with detail).
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadKind    = errors.New("wire: unknown frame kind")
	ErrTooLarge   = errors.New("wire: frame exceeds size limit")
)

// TypeBinding is one type-table entry: the code embedded in the page's
// object headers, and the registered type name it must resolve to on the
// receiving side.
type TypeBinding struct {
	Code uint32
	Name string
}

// Tag is a page's exchange position (mirrors exchange.Tag without the
// import: wire sits below the exchange).
type Tag struct {
	Producer, Thread, Seq uint32
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind  byte
	Tag   Tag
	Types []TypeBinding
	// Payload is the page's occupied bytes (KindPage) or the control
	// message (KindControl), exactly as transmitted.
	Payload []byte
}

// Append serializes the frame onto buf and returns the extended slice. The
// payload is copied verbatim — page bytes are never re-encoded.
func Append(buf []byte, f *Frame) ([]byte, error) {
	buf, err := appendHeader(buf, f)
	if err != nil {
		return nil, err
	}
	return append(buf, f.Payload...), nil
}

// appendHeader serializes all of the frame but its payload: the fixed
// header, the type table and the payload length.
func appendHeader(buf []byte, f *Frame) ([]byte, error) {
	if f.Kind != KindPage && f.Kind != KindControl {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
	}
	if len(f.Types) > MaxTypeTable {
		return nil, fmt.Errorf("%w: %d type bindings", ErrTooLarge, len(f.Types))
	}
	buf = append(buf, magic[0], magic[1], magic[2], Version, f.Kind)
	buf = binary.BigEndian.AppendUint32(buf, f.Tag.Producer)
	buf = binary.BigEndian.AppendUint32(buf, f.Tag.Thread)
	buf = binary.BigEndian.AppendUint32(buf, f.Tag.Seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Types)))
	for _, tb := range f.Types {
		if len(tb.Name) > maxTypeName {
			return nil, fmt.Errorf("%w: type name %d bytes", ErrTooLarge, len(tb.Name))
		}
		buf = binary.BigEndian.AppendUint32(buf, tb.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(tb.Name)))
		buf = append(buf, tb.Name...)
	}
	return binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload))), nil
}

// Write encodes f and writes it to w as one frame. The header and the
// payload go out as one net.Buffers write (one writev on a socket): the
// payload is written from the caller's slice, never copied into a frame
// buffer.
func Write(w io.Writer, f *Frame) error {
	var hdr [128]byte
	h, err := appendHeader(hdr[:0], f)
	if err != nil {
		return err
	}
	bufs := net.Buffers{h, f.Payload}
	_, err = bufs.WriteTo(w)
	return err
}

// Read decodes one frame from r. maxPayload bounds the payload length a
// length prefix may claim (<= 0 uses DefaultMaxPayload). Truncated input
// returns an error wrapping io.ErrUnexpectedEOF; a clean EOF before any
// header byte returns io.EOF untouched, so stream loops can end naturally.
// Read never panics on corrupt input. The payload is freshly allocated.
func Read(r io.Reader, maxPayload int) (*Frame, error) {
	return ReadInto(r, maxPayload, nil)
}

// ReadInto is Read, except that a page frame's payload is read into the
// slice payload returns for its length n, asked once n has passed the
// maxPayload check. The frame's Payload is that slice cut to n bytes, so
// its capacity still reaches the slice's end. A nil payload func, or a
// returned slice shorter than n, leaves the payload freshly allocated, as
// a control frame's always is.
func ReadInto(r io.Reader, maxPayload int, payload func(n int) []byte) (*Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [21]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading header: %w", err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("wire: reading header: %w", unexpected(err))
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] || hdr[2] != magic[2] {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, hdr[:3])
	}
	if hdr[3] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[3])
	}
	f := &Frame{Kind: hdr[4]}
	if f.Kind != KindPage && f.Kind != KindControl {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, f.Kind)
	}
	f.Tag.Producer = binary.BigEndian.Uint32(hdr[5:])
	f.Tag.Thread = binary.BigEndian.Uint32(hdr[9:])
	f.Tag.Seq = binary.BigEndian.Uint32(hdr[13:])
	nTypes := binary.BigEndian.Uint32(hdr[17:])
	if nTypes > MaxTypeTable {
		return nil, fmt.Errorf("%w: %d type bindings", ErrTooLarge, nTypes)
	}
	if nTypes > 0 {
		f.Types = make([]TypeBinding, 0, nTypes)
	}
	var ent [6]byte
	for i := uint32(0); i < nTypes; i++ {
		if _, err := io.ReadFull(r, ent[:]); err != nil {
			return nil, fmt.Errorf("wire: reading type table: %w", unexpected(err))
		}
		code := binary.BigEndian.Uint32(ent[:])
		nameLen := binary.BigEndian.Uint16(ent[4:])
		if int(nameLen) > maxTypeName {
			return nil, fmt.Errorf("%w: type name %d bytes", ErrTooLarge, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("wire: reading type table: %w", unexpected(err))
		}
		f.Types = append(f.Types, TypeBinding{Code: code, Name: string(name)})
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("wire: reading payload length: %w", unexpected(err))
	}
	payLen := binary.BigEndian.Uint32(lenBuf[:])
	if int64(payLen) > int64(maxPayload) {
		return nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, payLen, maxPayload)
	}
	if f.Kind == KindPage && payload != nil {
		if b := payload(int(payLen)); len(b) >= int(payLen) {
			f.Payload = b[:payLen]
		}
	}
	if f.Payload == nil {
		f.Payload = make([]byte, payLen)
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return nil, fmt.Errorf("wire: reading payload: %w", unexpected(err))
	}
	return f, nil
}

// unexpected normalizes a short read: io.EOF mid-frame is a truncation.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
