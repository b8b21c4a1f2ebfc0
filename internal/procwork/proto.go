// Package procwork is the process boundary's protocol: the control
// messages and page frames a master and a worker backend running as a real
// OS process (cmd/pcworker) exchange over a unix or TCP socket. Both ends
// live in internal/cluster — the master's relays (procrun.go) and the
// worker's serving loop (cluster.ServeWorker), which runs the same role
// functions an in-process backend runs.
//
// Every conversation is one session on one connection, framed with
// internal/wire: KindControl frames carry JSON Msg values (requests,
// stream ends, completion), KindPage frames carry sealed pages
// verbatim — the zero-serialization property holds across genuinely
// separate address spaces, with the frame's type table verified against
// the receiver's registry before a page is adopted.
package procwork

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/object"
	"repro/internal/wire"
)

// maxPayload bounds a single frame on the control socket. Pages are at
// most a few MiB in every supported configuration; 64 MiB leaves room
// without letting a corrupt length field allocate the machine away.
const maxPayload = 64 << 20

// FieldSchema is one field of a shipped struct layout.
type FieldSchema struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
}

// TypeSchema ships one user type's layout: the worker process re-registers
// it pinned to the master's type code, so sealed pages cross the boundary
// without translation.
type TypeSchema struct {
	Name   string        `json:"name"`
	Code   uint32        `json:"code"`
	Fields []FieldSchema `json:"fields"`
}

// Msg is the control envelope. Op selects the meaning; unused fields stay
// zero. Ops, by direction:
//
//	master → worker: "produce", "consume" (session openers), "eof" (end
//	  of the relayed shuffle stream)
//	worker → master: "eof" (end of a produced stream), "done" (session
//	  success), "error" (session failure, Err set)
type Msg struct {
	Op string `json:"op"`

	// Session opener fields.
	Prog     string       `json:"prog,omitempty"`     // optimized TCAP text
	Produces string       `json:"produces,omitempty"` // stage selector: what it produces ("aggmaps:...", "sortruns:...", "mat:...", or "set:<db>.<set>" for a merge that writes its OUTPUT's set)
	AggList  string       `json:"aggList,omitempty"`  // AGGREGATE or SORT output list the consumer merges ("" for a producer); with Produces, names the stage
	Worker   int          `json:"worker,omitempty"`
	Workers  int          `json:"workers,omitempty"`
	Threads  int          `json:"threads,omitempty"`
	PageSize int          `json:"pageSize,omitempty"`
	Types    []TypeSchema `json:"types,omitempty"`

	// KillAfterPages is a shipped fault.ProcKill: when > 0, the worker
	// exits hard right after its KillAfterPages-th delivered page
	// (consume sessions only; 0 disables).
	KillAfterPages int `json:"killAfterPages,omitempty"`

	Err string `json:"err,omitempty"`
}

// WriteMsg sends one control message as a KindControl frame.
func WriteMsg(w io.Writer, m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("procwork: encoding %q message: %w", m.Op, err)
	}
	return wire.Write(w, &wire.Frame{Kind: wire.KindControl, Payload: payload})
}

// WritePage sends one sealed page as a KindPage frame carrying reg's full
// user-type table, so the receiver can verify code agreement before
// adopting the bytes.
func WritePage(w io.Writer, tag wire.Tag, p *object.Page, reg *object.Registry) error {
	var types []wire.TypeBinding
	for _, ti := range reg.UserTypes() {
		types = append(types, wire.TypeBinding{Code: ti.Code, Name: ti.Name})
	}
	return wire.Write(w, &wire.Frame{Kind: wire.KindPage, Tag: tag, Types: types, Payload: p.Bytes()})
}

// ReadFrame reads the next frame under the protocol's payload bound.
func ReadFrame(r io.Reader) (*wire.Frame, error) {
	return wire.Read(r, maxPayload)
}

// ReadFrameInto is ReadFrame, except that a page frame's payload is read
// into the slice payload returns (wire.ReadInto).
func ReadFrameInto(r io.Reader, payload func(n int) []byte) (*wire.Frame, error) {
	return wire.ReadInto(r, maxPayload, payload)
}

// DecodeMsg unpacks a KindControl frame.
func DecodeMsg(f *wire.Frame) (*Msg, error) {
	if f.Kind != wire.KindControl {
		return nil, fmt.Errorf("procwork: expected a control frame, got kind %d", f.Kind)
	}
	var m Msg
	if err := json.Unmarshal(f.Payload, &m); err != nil {
		return nil, fmt.Errorf("procwork: decoding control frame: %w", err)
	}
	return &m, nil
}

// DecodePage verifies a KindPage frame's type table against reg and adopts
// the payload as a page owned by it. The page's Data is the payload up to
// its capacity, so a payload read into a page-pool frame (ReadFrameInto)
// makes that whole frame the page, and the pool takes it back.
func DecodePage(f *wire.Frame, reg *object.Registry) (*object.Page, error) {
	if f.Kind != wire.KindPage {
		return nil, fmt.Errorf("procwork: expected a page frame, got kind %d", f.Kind)
	}
	for _, tb := range f.Types {
		ti := reg.LookupName(tb.Name)
		if ti == nil {
			// Unknown name: fault the code in (the dynamic class-loading
			// path — registries with a Miss hook fetch the type from the
			// master catalog). A registry with no hook stays nil.
			ti = reg.Lookup(tb.Code)
		}
		if ti == nil || ti.Name != tb.Name {
			return nil, fmt.Errorf("procwork: page frame binds unregistered type %q", tb.Name)
		}
		if ti.Code != tb.Code {
			return nil, fmt.Errorf("procwork: type drift: %q is code %d here, %d on the wire", tb.Name, ti.Code, tb.Code)
		}
	}
	// The payload is a fresh allocation or a frame the reader took for this
	// page alone; the page takes ownership without another copy.
	return object.FromBytes(f.Payload[:cap(f.Payload)], reg)
}

// SchemasOf captures reg's user types as shippable schemas (Methods, Hash
// and Equal hooks are native code and cannot cross; proc mode restricts
// itself to plans that never need them).
func SchemasOf(reg *object.Registry) []TypeSchema {
	var out []TypeSchema
	for _, ti := range reg.UserTypes() {
		ts := TypeSchema{Name: ti.Name, Code: ti.Code}
		for _, f := range ti.Fields {
			ts.Fields = append(ts.Fields, FieldSchema{Name: f.Name, Kind: int(f.Kind)})
		}
		out = append(out, ts)
	}
	return out
}

// RegisterSchemas installs shipped schemas into a fresh registry, pinning
// each type to its wire code so sealed pages decode without translation.
// Schemas arrive off the wire, so each is checked before it registers: a
// code in the user-type range, storage kinds only, no name or code twice.
func RegisterSchemas(reg *object.Registry, schemas []TypeSchema) error {
	names, codes := map[string]bool{}, map[uint32]bool{}
	for _, ts := range schemas {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("procwork: shipped type %q: "+format, append([]any{ts.Name}, args...)...)
		}
		switch {
		case ts.Code < object.FirstUserTypeCode || object.IsSimpleCode(ts.Code):
			return bad("code %d is outside the user-type range", ts.Code)
		case names[ts.Name]:
			return bad("shipped twice")
		case codes[ts.Code]:
			return bad("code %d shipped twice", ts.Code)
		}
		names[ts.Name], codes[ts.Code] = true, true
		b := object.NewStruct(ts.Name)
		for _, f := range ts.Fields {
			k := object.Kind(f.Kind)
			if int(k) != f.Kind || k.Size() == 0 {
				return bad("field %q has invalid kind %d", f.Name, f.Kind)
			}
			b.AddField(f.Name, k)
		}
		reg.PinCode(ts.Name, ts.Code)
		if _, err := b.Build(reg); err != nil {
			return bad("%w", err)
		}
	}
	return nil
}
