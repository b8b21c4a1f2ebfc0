package cluster

// Set restore (ROADMAP "persist/restore worker sets"): a disk-backed
// cluster survives restarts. Worker storage servers already rediscover
// their page files on open (storage.NewServer scans the data directory);
// what pages alone cannot carry is the catalog's view — databases, set
// names, element type names and codes, partition keys. The cluster
// therefore writes a small manifest next to the worker directories on
// every metadata mutation, and New replays it: sets re-register under
// their type *names*, and each persisted type's *code* is pinned so that
// when the user re-registers the types — in any order — the objects on
// disk, whose headers embed the original codes, keep resolving to the
// right TypeInfo (catalog.Master.RestoreTypeCode / RegisterType).

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// manifestSet is one persisted set's catalog record.
type manifestSet struct {
	Db           string `json:"db"`
	Set          string `json:"set"`
	TypeName     string `json:"type"`
	PartitionKey string `json:"partitionKey,omitempty"`
	Gen          uint64 `json:"gen,omitempty"`
}

// manifestType pins one persisted type name to the code embedded in the
// on-disk pages' object headers.
type manifestType struct {
	Name string `json:"name"`
	Code uint32 `json:"code"`
}

// manifest is the persisted catalog state.
type manifest struct {
	Databases  []string       `json:"databases"`
	Types      []manifestType `json:"types"`
	Sets       []manifestSet  `json:"sets"`
	Generation uint64         `json:"generation,omitempty"` // the last set generation assigned
}

func (c *Cluster) manifestPath() string {
	return filepath.Join(c.Cfg.DataDir, "catalog.json")
}

// saveManifest snapshots the master catalog to DataDir/catalog.json
// atomically, so a crash mid-write never leaves a torn manifest; the mutex
// keeps concurrent DDL from interleaving stale snapshots. Memory-only
// clusters skip it.
func (c *Cluster) saveManifest() error {
	if c.Cfg.DataDir == "" {
		return nil
	}
	c.manifestMu.Lock()
	defer c.manifestMu.Unlock()
	m := manifest{Databases: c.Catalog.Databases(), Generation: c.Catalog.Generation()}
	for _, ti := range c.Catalog.UserTypes() {
		m.Types = append(m.Types, manifestType{Name: ti.Name, Code: ti.Code})
	}
	for _, sm := range c.Catalog.Sets() {
		m.Sets = append(m.Sets, manifestSet{
			Db: sm.Db, Set: sm.Set, TypeName: sm.TypeName, PartitionKey: sm.PartitionKey, Gen: sm.Gen,
		})
	}
	return writeJSONAtomic(c.manifestPath(), &m)
}

// writeJSONAtomic replaces path with v's JSON through a temp file and a
// rename, so a crash mid-write leaves the old file or the new one, never a
// torn one. The catalog manifest, the one small metadata file the cluster
// persists, goes through here, which makes this the single place ROADMAP
// item 6's fsync (the file before the rename, then the
// directory) goes; it is not added here because it may move setup_s.
func writeJSONAtomic(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err // a *PathError: it names the operation and the file
	}
	return os.Rename(tmp, path)
}

// loadManifest restores catalog state persisted by a previous cluster on
// the same DataDir: databases and sets re-register, type codes are pinned
// for re-registration, and each set's placement stats are rebuilt from the
// workers' restored storage.
func (c *Cluster) loadManifest() error {
	if c.Cfg.DataDir == "" {
		return nil
	}
	b, err := os.ReadFile(c.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil // fresh directory
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for _, db := range m.Databases {
		c.Catalog.RestoreDatabase(db)
	}
	for _, t := range m.Types {
		c.Catalog.RestoreTypeCode(t.Name, t.Code)
	}
	c.Catalog.RestoreGeneration(m.Generation)
	for _, sm := range m.Sets {
		var pages int
		var bytes int64
		for _, w := range c.Workers {
			pages += w.Front.Store.PageCount(sm.Db, sm.Set)
			bytes += w.Front.Store.SetBytes(sm.Db, sm.Set)
		}
		c.Catalog.RestoreSet(sm.Db, sm.Set, sm.TypeName, sm.PartitionKey, sm.Gen, pages, bytes)
	}
	return nil
}
