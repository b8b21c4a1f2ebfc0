// Package storage implements the worker-local storage server (paper §2,
// Appendix D.1): persistent sets of PC pages on a user-level file layout.
// Because pages are self-contained byte arrays, persistence is a single
// write of the occupied prefix and loading is a single read — no
// (de)serialization. The paper's server reads pages through a buffer pool;
// this one does not: Pages returns every page of a set at once (memory mode
// hands back the resident pages themselves, disk mode reads the whole set).
// A page cursor bounded by the cluster's MemoryBudget, if a workload ever
// needs one, would start from SpillPool, which already writes and reloads
// single pages by slot number.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/object"
)

// ErrUnknownSet marks a read or drop of a set this server never stored.
// For a cluster worker that is the ordinary "no pages of this set landed
// here" case; every other error from Pages (a failed read, a corrupt page
// file) means stored data is damaged and must fail the caller.
var ErrUnknownSet = errors.New("storage: unknown set")

// Server stores sets of pages. With a directory it persists pages to
// db/set/page-N.pcp files; without one it keeps everything in memory (used
// by tests and the simulated cluster's fast path).
type Server struct {
	mu  sync.RWMutex
	dir string // "" = memory only
	reg *object.Registry

	sets map[string]*setData

	// BytesWritten / BytesRead count storage traffic.
	BytesWritten int64
	BytesRead    int64
}

type setData struct {
	pages []*object.Page // resident pages (memory mode or cache)
	count int            // persisted page count (disk mode)
}

// NewServer creates a storage server. dir may be empty for memory-only
// operation. A non-empty dir is scanned for sets persisted by a previous
// server (db/set/page-N.pcp files), which re-register with their page
// counts so a restarted worker serves them immediately.
func NewServer(dir string, reg *object.Registry) (*Server, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Server{dir: dir, reg: reg, sets: map[string]*setData{}}
	if dir != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restore rediscovers persisted sets: every db/set directory under dir
// re-registers with the number of page files it holds, so appends continue
// the page numbering and Pages serves the restored data.
func (s *Server) restore() error {
	dbs, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, db := range dbs {
		if !db.IsDir() {
			continue
		}
		sets, err := os.ReadDir(filepath.Join(s.dir, db.Name()))
		if err != nil {
			return err
		}
		for _, set := range sets {
			if !set.IsDir() {
				continue
			}
			pages, err := os.ReadDir(filepath.Join(s.dir, db.Name(), set.Name()))
			if err != nil {
				return err
			}
			n := 0
			for _, p := range pages {
				if !p.IsDir() {
					n++
				}
			}
			s.sets[setKey(db.Name(), set.Name())] = &setData{count: n}
		}
	}
	return nil
}

// PageCount reports how many pages a set holds on this server (restore
// bookkeeping; zero for unknown sets).
func (s *Server) PageCount(db, set string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sd, ok := s.sets[setKey(db, set)]; ok {
		return sd.count
	}
	return 0
}

func setKey(db, set string) string { return db + "." + set }

func (s *Server) setDir(db, set string) string {
	return filepath.Join(s.dir, db, set)
}

// CreateSet prepares a set for storage (idempotent).
func (s *Server) CreateSet(db, set string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := setKey(db, set)
	if _, ok := s.sets[key]; ok {
		return nil
	}
	s.sets[key] = &setData{}
	if s.dir != "" {
		return os.MkdirAll(s.setDir(db, set), 0o755)
	}
	return nil
}

// Append stores pages into a set (creating it if needed), un-managing each.
// In disk mode each page's occupied prefix is written to its own file and
// the server keeps no reference to the page, so the caller may reuse its
// bytes once Append returns; memory mode keeps the pages themselves.
func (s *Server) Append(db, set string, pages []*object.Page) error {
	if err := s.CreateSet(db, set); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd := s.sets[setKey(db, set)]
	for _, p := range pages {
		p.SetManaged(false)
		if s.dir != "" {
			path := filepath.Join(s.setDir(db, set), fmt.Sprintf("page-%06d.pcp", sd.count))
			b := p.Bytes()
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
			s.BytesWritten += int64(len(b))
			sd.count++
		} else {
			sd.pages = append(sd.pages, p)
			sd.count++
		}
	}
	// Keep resident copies in memory mode only; disk mode re-reads.
	return nil
}

// Pages returns all pages of a set, loading from disk in disk mode. An
// unknown set is ErrUnknownSet; any other error is a failed or corrupt
// read of data the server does hold.
func (s *Server) Pages(db, set string) ([]*object.Page, error) {
	s.mu.RLock()
	sd, ok := s.sets[setKey(db, set)]
	var resident []*object.Page
	if ok {
		resident = sd.pages // read under the lock: Append grows it concurrently
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %s.%s", ErrUnknownSet, db, set)
	}
	if s.dir == "" {
		return resident, nil
	}
	entries, err := os.ReadDir(s.setDir(db, set))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var pages []*object.Page
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(s.setDir(db, set), n))
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.BytesRead += int64(len(b))
		s.mu.Unlock()
		p, err := object.FromBytes(b, s.reg)
		if err != nil {
			return nil, fmt.Errorf("storage: corrupt page %s: %w", n, err)
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// Drop removes a set and its files.
func (s *Server) Drop(db, set string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := setKey(db, set)
	if _, ok := s.sets[key]; !ok {
		return fmt.Errorf("%w %s.%s", ErrUnknownSet, db, set)
	}
	delete(s.sets, key)
	if s.dir != "" {
		return os.RemoveAll(s.setDir(db, set))
	}
	return nil
}

// SetBytes reports the stored byte volume of a set (restore bookkeeping:
// a restarted catalog's byte count for the set).
func (s *Server) SetBytes(db, set string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sd, ok := s.sets[setKey(db, set)]
	if !ok {
		return 0
	}
	if s.dir == "" {
		var total int64
		for _, p := range sd.pages {
			total += int64(p.Used())
		}
		return total
	}
	var total int64
	entries, err := os.ReadDir(s.setDir(db, set))
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// Sets lists stored set keys.
func (s *Server) Sets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sets))
	for k := range s.sets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
