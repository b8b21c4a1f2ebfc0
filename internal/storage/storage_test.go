package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/object"
)

func buildPage(t testing.TB, reg *object.Registry, vals ...float64) *object.Page {
	t.Helper()
	p := object.NewPage(1<<14, reg)
	a := object.NewAllocator(p)
	v, err := object.MakeVector(a, object.KFloat64, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	v.Retain()
	for _, x := range vals {
		if err := v.PushBackF64(a, x); err != nil {
			t.Fatal(err)
		}
	}
	p.SetRoot(v.Off)
	return p
}

func TestMemoryModeRoundTrip(t *testing.T) {
	reg := object.NewRegistry()
	s, err := NewServer("", reg)
	if err != nil {
		t.Fatal(err)
	}
	p := buildPage(t, reg, 1, 2, 3)
	if err := s.Append("db", "set", []*object.Page{p}); err != nil {
		t.Fatal(err)
	}
	pages, err := s.Pages("db", "set")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 1 {
		t.Fatalf("pages = %d", len(pages))
	}
	v := object.AsVector(object.Ref{Page: pages[0], Off: pages[0].Root()})
	if v.Len() != 3 || v.F64At(2) != 3 {
		t.Error("contents lost in memory mode")
	}
}

// TestAppendWritesNoPageBytes: storing a page, in memory or on disk, leaves
// the caller's page as it was and stores its occupied bytes unchanged.
func TestAppendWritesNoPageBytes(t *testing.T) {
	reg := object.NewRegistry()
	for _, dir := range []string{"", t.TempDir()} {
		s, err := NewServer(dir, reg)
		if err != nil {
			t.Fatal(err)
		}
		p := buildPage(t, reg, 1, 2, 3)
		want := bytes.Clone(p.Data)
		if err := s.Append("db", "set", []*object.Page{p}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, want) {
			t.Errorf("dir %q: Append wrote the caller's page", dir)
		}
		pages, err := s.Pages("db", "set")
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) != 1 || !bytes.Equal(pages[0].Bytes(), want[:p.Used()]) {
			t.Errorf("dir %q: the stored page's bytes differ from the page appended", dir)
		}
	}
}

func TestDiskModePersistsAndReloads(t *testing.T) {
	reg := object.NewRegistry()
	dir := t.TempDir()
	s, err := NewServer(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("db", "set", []*object.Page{
		buildPage(t, reg, 1, 2), buildPage(t, reg, 3, 4, 5),
	}); err != nil {
		t.Fatal(err)
	}
	if s.BytesWritten == 0 {
		t.Error("disk writes not counted")
	}

	// A brand-new server over the same directory must see the data
	// after re-registering the set (simulating a worker restart).
	s2, err := NewServer(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CreateSet("db", "set"); err != nil {
		t.Fatal(err)
	}
	pages, err := s2.Pages("db", "set")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pages {
		total += object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len()
	}
	if total != 5 {
		t.Errorf("reloaded element count = %d, want 5", total)
	}
	if s2.BytesRead == 0 {
		t.Error("disk reads not counted")
	}
}

func TestDropSet(t *testing.T) {
	reg := object.NewRegistry()
	s, _ := NewServer(t.TempDir(), reg)
	_ = s.Append("db", "set", []*object.Page{buildPage(t, reg, 1)})
	if err := s.Drop("db", "set"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pages("db", "set"); err == nil {
		t.Error("dropped set should be gone")
	}
	if err := s.Drop("db", "set"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestSetBytesAndSets(t *testing.T) {
	reg := object.NewRegistry()
	s, _ := NewServer("", reg)
	_ = s.Append("db", "a", []*object.Page{buildPage(t, reg, 1, 2, 3)})
	_ = s.Append("db", "b", []*object.Page{buildPage(t, reg, 1)})
	if s.SetBytes("db", "a") <= s.SetBytes("db", "b") {
		t.Error("larger set should report more bytes")
	}
	sets := s.Sets()
	if len(sets) != 2 || !strings.Contains(strings.Join(sets, ","), "db.a") {
		t.Errorf("Sets() = %v", sets)
	}
}

func TestUnknownSetErrors(t *testing.T) {
	s, _ := NewServer("", object.NewRegistry())
	if _, err := s.Pages("no", "set"); err == nil {
		t.Error("unknown set should error")
	}
}

// TestPagesTellsUnknownFromDamaged pins the one distinction callers rely on:
// a set the server never stored is ErrUnknownSet (from Pages and Drop
// alike), a stored set whose page file is damaged is a different error.
func TestPagesTellsUnknownFromDamaged(t *testing.T) {
	dir := t.TempDir()
	reg := object.NewRegistry()
	s, err := NewServer(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pages("no", "set"); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("Pages of an unknown set = %v, want ErrUnknownSet", err)
	}
	if err := s.Drop("no", "set"); !errors.Is(err, ErrUnknownSet) {
		t.Errorf("Drop of an unknown set = %v, want ErrUnknownSet", err)
	}
	if err := s.Append("db", "set", []*object.Page{buildPage(t, reg, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "db", "set", "page-000000.pcp"), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pages("db", "set"); err == nil || errors.Is(err, ErrUnknownSet) {
		t.Errorf("Pages over a truncated page file = %v, want a corrupt-page error that is not ErrUnknownSet", err)
	}
}

func TestDiskModeRestoresSetsOnOpen(t *testing.T) {
	dir := t.TempDir()
	reg := object.NewRegistry()
	s, err := NewServer(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("db", "set", []*object.Page{buildPage(t, reg, 1, 2), buildPage(t, reg, 3)}); err != nil {
		t.Fatal(err)
	}
	wantBytes := s.SetBytes("db", "set")

	// A fresh server on the same directory must rediscover the set.
	s2, err := NewServer(dir, object.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.PageCount("db", "set"); got != 2 {
		t.Fatalf("restored page count = %d, want 2", got)
	}
	if got := s2.SetBytes("db", "set"); got != wantBytes {
		t.Errorf("restored SetBytes = %d, want %d", got, wantBytes)
	}
	pages, err := s2.Pages("db", "set")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 {
		t.Fatalf("restored Pages = %d, want 2", len(pages))
	}
	// Appends after restore continue the page numbering.
	if err := s2.Append("db", "set", []*object.Page{buildPage(t, reg, 4)}); err != nil {
		t.Fatal(err)
	}
	pages, err = s2.Pages("db", "set")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 3 {
		t.Fatalf("post-restore append: Pages = %d, want 3", len(pages))
	}
}
