// Package catalog implements PC's catalog service (paper §2, §6.3, Appendix
// D.1): the master catalog serving system metadata — databases, sets, and
// the mapping between type codes and registered PC object types — and the
// per-worker local catalog that caches that metadata and faults in unknown
// type registrations on demand.
//
// In the C++ system a worker that dereferences a handle with an unseen type
// code fetches a shared library (.so) from the master, dynamically loads it,
// and patches the object's vTable pointer. Go cannot load native code at
// runtime in an offline build, so the "library" shipped here is the
// TypeInfo record (layout + method table); the fetch protocol, caching, and
// unknown-type fault path are the same.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/object"
)

// SetMeta describes a stored set: its database, name, element type,
// generation, and placement statistics.
type SetMeta struct {
	Db       string
	Set      string
	TypeName string
	TypeCode uint32

	// Gen is the set's generation, assigned at CreateSet and never reused
	// (the counter persists with the catalog manifest): a set dropped and
	// created again under the same name is a different set.
	Gen uint64

	// PageCount and ByteCount are updated by the storage layer as data
	// arrive.
	PageCount int
	ByteCount int64

	// PartitionKey labels the key every row of the set is placed by ("" =
	// unpartitioned): a row sits on the worker its key hash routes to.
	// UpdateSetStats keeps it true across appends. A join of two sets
	// sharing a label runs with zero shuffle (the paper's §8.3.3
	// future-work item).
	PartitionKey string
}

// Key returns the fully qualified set name.
func (s *SetMeta) Key() string { return s.Db + "." + s.Set }

// Master is the master node's catalog manager: the source of truth for type
// registrations and set metadata.
type Master struct {
	mu    sync.RWMutex
	reg   *object.Registry
	dbs   map[string]bool
	sets  map[string]*SetMeta
	gen   uint64 // the last generation CreateSet assigned
	stats MasterStats
}

// MasterStats counts catalog traffic (tests assert the fetch protocol runs).
type MasterStats struct {
	TypeFetches int // "ship the .so" requests served
}

// NewMaster creates an empty master catalog with its own authoritative type
// registry.
func NewMaster() *Master {
	return &Master{
		reg:  object.NewRegistry(),
		dbs:  map[string]bool{},
		sets: map[string]*SetMeta{},
	}
}

// Registry exposes the authoritative registry (the master's own processes —
// optimizer, scheduler — resolve types directly).
func (m *Master) Registry() *object.Registry { return m.reg }

// RegisterType registers a user type with the master before any data of
// that type may be stored in the cluster (the paper's registration
// requirement). Idempotent by name. On a restarted cluster the registry
// assigns re-registered types their persisted codes (Registry.PinCode), so
// restored pages' object headers keep resolving.
func (m *Master) RegisterType(ti *object.TypeInfo) (*object.TypeInfo, error) {
	return m.reg.Register(ti)
}

// FetchType serves a type registration to a worker that has faulted on an
// unknown type code — the .so-shipping analogue.
func (m *Master) FetchType(code uint32) *object.TypeInfo {
	m.mu.Lock()
	m.stats.TypeFetches++
	m.mu.Unlock()
	return m.reg.Lookup(code)
}

// Stats returns a copy of traffic counters.
func (m *Master) Stats() MasterStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// CreateDatabase registers a database name.
func (m *Master) CreateDatabase(db string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dbs[db] {
		return fmt.Errorf("catalog: database %q already exists", db)
	}
	m.dbs[db] = true
	return nil
}

// CreateSet registers a set of the given registered element type.
func (m *Master) CreateSet(db, set, typeName string) (*SetMeta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dbs[db] {
		return nil, fmt.Errorf("catalog: unknown database %q", db)
	}
	key := db + "." + set
	if _, dup := m.sets[key]; dup {
		return nil, fmt.Errorf("catalog: set %q already exists", key)
	}
	ti := m.reg.LookupName(typeName)
	if ti == nil {
		return nil, fmt.Errorf("catalog: set %q uses unregistered type %q", key, typeName)
	}
	m.gen++
	sm := &SetMeta{Db: db, Set: set, TypeName: typeName, TypeCode: ti.Code, Gen: m.gen}
	m.sets[key] = sm
	return sm, nil
}

// Generation returns the last generation CreateSet assigned (manifest
// persistence).
func (m *Master) Generation() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.gen
}

// RestoreGeneration raises the generation counter to one a persisted
// catalog manifest recorded, so a set created after a restart never gets
// the generation of a set dropped before it.
func (m *Master) RestoreGeneration(gen uint64) {
	m.mu.Lock()
	m.gen = max(m.gen, gen)
	m.mu.Unlock()
}

// RestoreTypeCode pins a persisted type name to the code its on-disk pages
// embed: when the type re-registers (through this catalog or directly
// against the registry), it gets its original code back, and fresh
// registrations stay clear of it.
func (m *Master) RestoreTypeCode(name string, code uint32) {
	m.reg.PinCode(name, code)
}

// UserTypes lists registered user types for manifest persistence.
func (m *Master) UserTypes() []*object.TypeInfo { return m.reg.UserTypes() }

// RestoreDatabase re-registers a database found in a persisted catalog
// manifest at startup (idempotent, unlike CreateDatabase).
func (m *Master) RestoreDatabase(db string) {
	m.mu.Lock()
	m.dbs[db] = true
	m.mu.Unlock()
}

// RestoreSet re-registers a set discovered on disk at startup, recorded
// under its element type's *name* (the authoritative binding; the
// informational TypeCode resolves only if the type happens to be
// registered already, and on-disk object headers resolve through the
// registry's pinned codes regardless) and its persisted generation.
// Idempotent: an already-known set is left alone.
func (m *Master) RestoreSet(db, set, typeName, partitionKey string, gen uint64, pages int, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dbs[db] = true
	key := db + "." + set
	if _, ok := m.sets[key]; ok {
		return
	}
	sm := &SetMeta{Db: db, Set: set, TypeName: typeName, PartitionKey: partitionKey,
		Gen: gen, PageCount: pages, ByteCount: bytes}
	if ti := m.reg.LookupName(typeName); ti != nil {
		sm.TypeCode = ti.Code
	}
	m.sets[key] = sm
}

// Databases lists registered database names (manifest persistence).
func (m *Master) Databases() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.dbs))
	for db := range m.dbs {
		out = append(out, db)
	}
	sort.Strings(out)
	return out
}

// LookupSet resolves set metadata.
func (m *Master) LookupSet(db, set string) (*SetMeta, error) {
	m.mu.Lock()
	sm := m.sets[db+"."+set]
	m.mu.Unlock()
	if sm == nil {
		return nil, fmt.Errorf("catalog: unknown set %s.%s", db, set)
	}
	return sm, nil
}

// SetVersion reports a set's generation and page count — together, which
// contents a scan of it reads — or zeros for an unknown set.
func (m *Master) SetVersion(db, set string) (gen uint64, pages int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if sm := m.sets[db+"."+set]; sm != nil {
		return sm.Gen, sm.PageCount
	}
	return 0, 0
}

// DropSet removes a set's metadata.
func (m *Master) DropSet(db, set string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := db + "." + set
	if _, ok := m.sets[key]; !ok {
		return fmt.Errorf("catalog: unknown set %q", key)
	}
	delete(m.sets, key)
	return nil
}

// PartitionKey returns a set's partition label; an unknown set has none.
func (m *Master) PartitionKey(db, set string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if sm := m.sets[db+"."+set]; sm != nil {
		return sm.PartitionKey
	}
	return ""
}

// UpdateSetStats records pages appended to a set (called as each load, and
// each stage that writes a set, stores them) and keeps the set's partition
// label true, the one place that rule lives. partitionKey is the label the
// appended rows were routed by ("" for rows placed any other way):
//
//   - an empty set takes the append's label, which is "" unless every
//     appended row sits on the worker its key routes to;
//   - a set carrying that same label keeps it;
//   - any other append of at least one page clears the label, since the
//     new rows are not placed by the set's key.
//
// It reports whether the label changed, so the caller can persist it.
func (m *Master) UpdateSetStats(db, set string, pages int, bytes int64, partitionKey string) (relabelled bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sm := m.sets[db+"."+set]
	if sm == nil {
		return false
	}
	old := sm.PartitionKey
	switch {
	case sm.PageCount == 0:
		sm.PartitionKey = partitionKey
	case pages > 0 && old != partitionKey:
		sm.PartitionKey = ""
	}
	sm.PageCount += pages
	sm.ByteCount += bytes
	return sm.PartitionKey != old
}

// Sets lists all set metadata sorted by key (for tooling).
func (m *Master) Sets() []*SetMeta {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*SetMeta, 0, len(m.sets))
	for _, sm := range m.sets {
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Local is a worker front-end's local catalog manager: it owns the worker's
// registry and faults unknown type codes through to the master, caching the
// result — the dynamic class-loading path of paper §6.3.
type Local struct {
	master *Master
	reg    *object.Registry

	mu      sync.Mutex
	fetches int
}

// NewLocal creates a worker-local catalog bound to a master.
func NewLocal(master *Master) *Local {
	l := &Local{master: master, reg: object.NewRegistry()}
	l.reg.Miss = func(code uint32) *object.TypeInfo {
		l.mu.Lock()
		l.fetches++
		l.mu.Unlock()
		return master.FetchType(code)
	}
	return l
}

// Registry returns the worker's registry (with the miss hook installed).
func (l *Local) Registry() *object.Registry { return l.reg }

// Fetches reports how many unknown-type faults this worker resolved against
// the master.
func (l *Local) Fetches() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fetches
}
