package object

import (
	"fmt"
	"sort"
	"sync"
)

// Field describes one member of a registered user type: its name, storage
// kind, and byte offset within the object payload. Fields of handle kinds
// are traversed by the deep-copy machinery.
type Field struct {
	Name string
	Kind Kind
	Off  uint32
}

// Method is a registered virtual method on a user type. Dispatch happens
// through the type code stored in each handle — the Go analogue of the
// paper's vTable-pointer patching (§6.3). Fn receives the receiver object
// and returns the method result as a Value.
type Method struct {
	Name string
	Ret  Kind
	Fn   func(Ref) Value
}

// TypeInfo is the registered description of a PC object type: layout,
// methods, and optional hash/equality used when objects of this type serve
// as map or join keys. It plays the role of the vTable plus the reflection
// metadata a C++ compiler would emit.
type TypeInfo struct {
	Code uint32
	Name string
	Size uint32 // payload size of the fixed-length portion

	Fields  []Field
	Methods map[string]Method

	// Hash and Equal are optional; required only when objects of this
	// type are used as Map keys or join keys directly.
	Hash  func(Ref) uint64
	Equal func(a, b Ref) bool

	// The field indexes are built lazily exactly once. A TypeInfo may be
	// shared by many registries (the master catalog hands the same
	// registration to every worker), so they must not be rebuilt per
	// Register.
	fieldOnce    sync.Once
	fieldByName  map[string]*Field
	handleFields []*Field
}

func (t *TypeInfo) indexFields() {
	t.fieldByName = make(map[string]*Field, len(t.Fields))
	for i := range t.Fields {
		f := &t.Fields[i]
		t.fieldByName[f.Name] = f
		if f.Kind.IsHandleKind() {
			t.handleFields = append(t.handleFields, f)
		}
	}
}

// Field returns the field descriptor by name, or nil.
func (t *TypeInfo) Field(name string) *Field {
	t.fieldOnce.Do(t.indexFields)
	return t.fieldByName[name]
}

// Method returns the method descriptor by name, or nil... callers that need
// a hard failure use MustMethod.
func (t *TypeInfo) Method(name string) (Method, bool) {
	m, ok := t.Methods[name]
	return m, ok
}

// HandleFields returns the subset of fields holding handles, in offset
// order; used by deep copies. The slice is shared: callers
// must not modify it.
func (t *TypeInfo) HandleFields() []*Field {
	t.fieldOnce.Do(t.indexFields)
	return t.handleFields
}

// Registry maps type codes to TypeInfo. Each process (in the simulated
// cluster: each worker) owns a Registry; unknown codes fault into the Miss
// hook, which the catalog layer uses to fetch registrations from the master
// — the analogue of shipping an .so to a worker that has never seen a type
// (paper §6.3).
type Registry struct {
	mu     sync.RWMutex
	byCode map[uint32]*TypeInfo
	byName map[string]*TypeInfo
	next   uint32

	// pins maps type names to the code persisted pages embed (set by
	// PinCode on restore); Register hands a pinned name its original
	// code so on-disk object headers keep resolving after a restart,
	// whatever order types re-register in.
	pins map[string]uint32

	// Miss, if set, is consulted when a lookup by code fails. It may
	// return a TypeInfo fetched from elsewhere (which is then cached)
	// or nil.
	Miss func(code uint32) *TypeInfo
}

// NewRegistry creates an empty registry whose user type codes start at
// FirstUserTypeCode.
func NewRegistry() *Registry {
	return &Registry{
		byCode: make(map[uint32]*TypeInfo),
		byName: make(map[string]*TypeInfo),
		pins:   make(map[string]uint32),
		next:   FirstUserTypeCode,
	}
}

// Register installs a TypeInfo. If ti.Code is zero a fresh code is assigned
// (honoring a PinCode binding for the name, if any). Registering a name
// twice returns the existing registration (idempotent, so every simulated
// process can register the same shared type set).
func (r *Registry) Register(ti *TypeInfo) (*TypeInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byName[ti.Name]; ok {
		return prev, nil
	}
	if ti.Code == 0 {
		if code, ok := r.pins[ti.Name]; ok {
			ti.Code = code
		} else {
			ti.Code = r.next
			r.next++
		}
	}
	if ti.Code >= r.next {
		r.next = ti.Code + 1
	}
	if _, dup := r.byCode[ti.Code]; dup {
		return nil, fmt.Errorf("object: duplicate type code %d", ti.Code)
	}
	r.byCode[ti.Code] = ti
	r.byName[ti.Name] = ti
	return ti, nil
}

// PinCode binds a type name to the code persisted pages embed, ahead of
// the type's re-registration (the restore path): when Register later sees
// the name, it assigns the pinned code instead of a fresh one, and fresh
// automatic assignments are kept clear of the pin.
func (r *Registry) PinCode(name string, code uint32) {
	r.mu.Lock()
	r.pins[name] = code
	if code >= r.next {
		r.next = code + 1
	}
	r.mu.Unlock()
}

// UserTypes lists the registered user types (codes at or above
// FirstUserTypeCode) sorted by code — the persistence manifest's view.
func (r *Registry) UserTypes() []*TypeInfo {
	r.mu.RLock()
	out := make([]*TypeInfo, 0, len(r.byCode))
	for code, ti := range r.byCode {
		if code >= FirstUserTypeCode {
			out = append(out, ti)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Lookup resolves a type code, faulting into Miss for unknown codes.
func (r *Registry) Lookup(code uint32) *TypeInfo {
	r.mu.RLock()
	ti := r.byCode[code]
	r.mu.RUnlock()
	if ti != nil {
		return ti
	}
	if r.Miss == nil {
		return nil
	}
	fetched := r.Miss(code)
	if fetched == nil {
		return nil
	}
	cached, err := r.Register(fetched)
	if err != nil {
		return nil
	}
	return cached
}

// LookupName resolves a type by its registered name.
func (r *Registry) LookupName(name string) *TypeInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// StructBuilder assembles a TypeInfo with automatically computed, aligned
// field offsets — the stand-in for the C++ compiler laying out an Object
// subclass.
type StructBuilder struct {
	name   string
	fields []Field
	off    uint32
}

// NewStruct begins building a user type with the given name.
func NewStruct(name string) *StructBuilder { return &StructBuilder{name: name} }

// AddField appends a field, aligning its offset to the kind's natural size
// (bools byte-aligned, 4-byte values 4-aligned, 8-byte values 8-aligned).
func (b *StructBuilder) AddField(name string, k Kind) *StructBuilder {
	align := k.Size()
	if align == 0 {
		panic("object: field with invalid kind " + k.String())
	}
	if align > 8 {
		align = 8
	}
	if rem := b.off % align; rem != 0 {
		b.off += align - rem
	}
	b.fields = append(b.fields, Field{Name: name, Kind: k, Off: b.off})
	b.off += k.Size()
	return b
}

// Build finalizes the layout (size rounded up to 8 bytes) and registers the
// type with the registry. The type starts with no methods; callers add them
// to its Methods map.
func (b *StructBuilder) Build(r *Registry) (*TypeInfo, error) {
	size := b.off
	if rem := size % 8; rem != 0 {
		size += 8 - rem
	}
	if size == 0 {
		size = 8
	}
	ti := &TypeInfo{Name: b.name, Size: size, Fields: b.fields, Methods: map[string]Method{}}
	return r.Register(ti)
}

// MustBuild is Build, panicking on error (registration of a fixed schema).
func (b *StructBuilder) MustBuild(r *Registry) *TypeInfo {
	ti, err := b.Build(r)
	if err != nil {
		panic(err)
	}
	return ti
}
