//go:build layerprobes

package layers

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/benchmark/suite"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/swiss"
	"repro/internal/tcap"
	"repro/internal/wire"
	"repro/pc"
)

// planning times compile, optimize, plan and the TCAP text round trip on
// the workload's own computation graph.
func (p *prober) planning() error {
	if p.in.Graph == nil {
		return errNA("the graph is built inside a library call; cluster.empty_job_s_p50 covers its planning")
	}
	const reps = 20
	var compile, optimize, build, text []float64
	for i := 0; i < reps; i++ {
		writes, err := p.in.Graph()
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := core.Compile(writes...)
		if err != nil {
			return err
		}
		t1 := time.Now()
		opt, _, err := optimizer.Optimize(res.Prog)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := physical.Build(opt); err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := tcap.Parse(opt.Print()); err != nil {
			return err
		}
		t4 := time.Now()
		compile = append(compile, t1.Sub(t0).Seconds())
		optimize = append(optimize, t2.Sub(t1).Seconds())
		build = append(build, t3.Sub(t2).Seconds())
		text = append(text, t4.Sub(t3).Seconds())
	}
	p.res.Set("core.compile_s_p50", suite.Median(compile))
	p.res.Set("optimizer.optimize_s_p50", suite.Median(optimize))
	p.res.Set("physical.build_s_p50", suite.Median(build))
	p.res.Set("tcap.print_parse_s_p50", suite.Median(text))
	return nil
}

// emptyJob is the workload's own job over an empty input: compile,
// optimize, plan, schedule, and nothing to process — the fixed cost per job.
func (p *prober) emptyJob() error {
	s, err := p.in.Rerun(true, nil, 2, 15)
	if err != nil {
		return err
	}
	p.res.Set("cluster.empty_job_s_p50", s)
	return nil
}

func (p *prober) shipMem() error {
	tr := cluster.NewMemTransport()
	r, err := rate(p.pageBytes(), func() error {
		_, err := tr.ShipAll(p.pages, p.reg)
		return err
	})
	if err == nil {
		p.res.Set("cluster.ship_mem_bytes_per_s", r)
	}
	return err
}

// shipUnix ships the same pages through a socket transport's page server.
// The transport makes its socket under the temp directory, so point that
// at the run's scratch directory for the duration (relative, hence short).
func (p *prober) shipUnix() error {
	tmp := filepath.Join(p.in.Dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	old, had := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", tmp)
	defer func() {
		if had {
			os.Setenv("TMPDIR", old)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()
	c, err := pc.Connect(pc.Config{Workers: suite.Workers, Threads: suite.Threads, PageSize: suite.PageSize, Transport: "unix"})
	if err != nil {
		return err
	}
	defer c.Close()
	r, err := rate(p.pageBytes(), func() error {
		_, err := c.Cluster.Transport.ShipAll(p.pages, p.reg)
		return err
	})
	if err == nil {
		p.res.Set("cluster.ship_unix_bytes_per_s", r)
	}
	return err
}

// procSpawn times starting one pcworker process up to its address banner.
func (p *prober) procSpawn() error {
	bin := p.in.Client.Cluster.Cfg.ProcBin
	if bin == "" {
		return errNA("the workload runs its backends in-process")
	}
	var times []float64
	for i := 0; i < 5; i++ {
		dir := filepath.Join(p.in.Dir, "spawn")
		t0 := time.Now()
		cmd := exec.Command(bin, "-worker", "0", "-network", "unix", "-data", dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0).Seconds()
		cmd.Process.Kill()
		cmd.Wait()
		os.RemoveAll(dir)
		if rerr != nil || !strings.HasPrefix(line, "ADDR ") {
			return fmt.Errorf("pcworker announced %q: %v", line, rerr)
		}
		times = append(times, d)
	}
	p.res.Set("cluster.proc_spawn_s", suite.Median(times))
	return nil
}

// differential reruns the workload under a mutated config and reports how
// much of this run's pc.job_s_p50 the mutation removes (base: in.JobS).
func (p *prober) differential(metric string, mutate func(*pc.Config)) error {
	control, err := p.in.Rerun(false, mutate, 2, 4)
	if err != nil {
		return err
	}
	p.res.Set(metric, (p.in.JobS-control)/p.in.JobS)
	return nil
}

func (p *prober) checkpointCost() error {
	if p.in.Set == "" {
		return errNA("the workload runs no exchange, so it takes no checkpoints")
	}
	return p.differential("cluster.checkpoint_cost_frac", func(c *pc.Config) { c.CheckpointInterval = -1 })
}

func (p *prober) boundaryCost() error {
	if p.in.Client.Cluster.Cfg.ProcBin == "" {
		return errNA("the workload does not cross a process boundary; see agg_wide_proc")
	}
	return p.differential("cluster.boundary_cost_frac", func(c *pc.Config) { c.ProcBin, c.DataDir = "", "" })
}

// executor runs the same compiled job on the single-process core.Executor
// with one thread: no exchange, no second worker.
func (p *prober) executor() error {
	if p.in.Graph == nil {
		return errNA("the graph is built inside a library call")
	}
	var all []*object.Page
	for _, w := range p.in.Client.Cluster.Workers {
		pages, err := w.Front.Store.Pages(p.in.Db, p.in.Set)
		if err == nil {
			all = append(all, pages...)
		}
	}
	// One pass: at half a million rows a second this is the dearest probe.
	t0 := time.Now()
	err := func() error {
		writes, err := p.in.Graph()
		if err != nil {
			return err
		}
		res, err := core.Compile(writes...)
		if err != nil {
			return err
		}
		opt, _, err := optimizer.Optimize(res.Prog)
		if err != nil {
			return err
		}
		res.Prog = opt
		plan, err := physical.Build(opt)
		if err != nil {
			return err
		}
		store := core.NewMemStore()
		store.Sets[p.in.Db+"."+p.in.Set] = all
		return core.NewExecutor(store, p.reg, suite.PageSize, suite.Workers).Run(res, plan)
	}()
	if err == nil {
		p.res.Set("engine.executor_rows_per_s", float64(p.in.Rows)/time.Since(t0).Seconds())
	}
	return err
}

func (p *prober) scan() error {
	r, err := rate(len(p.refs), func() error {
		n := 0
		err := engine.ScanPages(p.pages, "in", 1024, func(vl *engine.VectorList) error {
			n += vl.Rows()
			return nil
		})
		if err == nil && n != len(p.refs) {
			err = fmt.Errorf("scan saw %d of %d objects", n, len(p.refs))
		}
		return err
	})
	if err == nil {
		p.res.Set("engine.scan_rows_per_s", r)
	}
	return err
}

// sortKeys encodes (key, position) sort keys, then builds two sorted runs
// of SortRow pages from them and merges the runs.
func (p *prober) sortKeys() error {
	n := min(len(p.keys), len(p.refs), 100_000)
	encoded := make([]string, n)
	r, err := rate(n, func() error {
		for i := 0; i < n; i++ {
			k, err := engine.EncodeSortKey([]object.Value{object.Int64Value(p.keys[i]), object.Int64Value(int64(i))}, nil)
			if err != nil {
				return err
			}
			encoded[i] = k
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("engine.sortkey_encode_per_s", r)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(encoded[a], encoded[b]) })
	ti := engine.SortRowType(p.reg)
	r, err = rate(n, func() error {
		var runs [][]*object.Page
		for half := 0; half < 2; half++ {
			out, err := engine.NewRunPageSet(p.reg, suite.PageSize, nil, nil)
			if err != nil {
				return err
			}
			for j := half; j < n; j += 2 { // every other row: two interleaved sorted runs
				if err := engine.AppendSortRow(out, ti, encoded[order[j]], p.refs[order[j]], object.Value{}); err != nil {
					return err
				}
			}
			if err := out.CloseStream(); err != nil {
				return err
			}
			runs = append(runs, out.Pages())
		}
		m := engine.NewSortMerger(p.reg, runs, 0)
		prev := ""
		for {
			key, _, _, ok := m.Next()
			if !ok {
				break
			}
			if key < prev {
				return fmt.Errorf("merge emitted keys out of order")
			}
			prev = key
		}
		if m.Emitted() != n {
			return fmt.Errorf("merge emitted %d of %d rows", m.Emitted(), n)
		}
		return nil
	})
	if err == nil {
		p.res.Set("engine.sortmerge_rows_per_s", r)
	}
	return err
}

func keyHash(k int64) uint64 { return object.HashValue(object.Int64Value(k)) }

func (p *prober) joinTable() error {
	n := min(len(p.keys), len(p.refs))
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = keyHash(p.keys[i])
	}
	var t *engine.JoinTable
	r, err := rate(n, func() error {
		t = engine.NewJoinTable()
		for i, h := range hashes {
			t.Add(h, p.refs[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("engine.jointable_add_per_s", r)
	r, err = rate(n, func() error {
		found := 0
		for _, h := range hashes {
			found += t.Bucket(h).Len()
		}
		if found < n {
			return fmt.Errorf("probe found %d of %d rows", found, n)
		}
		return nil
	})
	if err == nil {
		p.res.Set("engine.jointable_probe_per_s", r)
	}
	return err
}

// objectBuild builds the workload's keys into pages two ways: as flat
// two-field rows, and as small object graphs (a struct holding a string and
// a handle to a vector of eight int64).
func (p *prober) objectBuild() error {
	reg := object.NewRegistry()
	flat, err := object.NewStruct("ProbeFlat").AddField("key", object.KInt64).AddField("val", object.KInt64).Build(reg)
	if err != nil {
		return err
	}
	nested, err := object.NewStruct("ProbeNested").AddField("key", object.KInt64).
		AddField("name", object.KString).AddField("vals", object.KHandle).Build(reg)
	if err != nil {
		return err
	}
	n := len(p.keys)
	r, err := rate(n, func() error {
		_, err := object.BuildPages(reg, suite.PageSize, n, func(a *object.Allocator, i int) (object.Ref, error) {
			o, err := a.MakeObject(flat)
			if err == nil {
				object.SetI64(o, flat.Field("key"), p.keys[i])
				object.SetI64(o, flat.Field("val"), int64(i))
			}
			return o, err
		})
		return err
	})
	if err != nil {
		return err
	}
	p.res.Set("object.build_flat_rows_per_s", r)
	n = min(n, 200_000)
	r, err = rate(n, func() error {
		_, err := object.BuildPages(reg, suite.PageSize, n, func(a *object.Allocator, i int) (object.Ref, error) {
			o, err := a.MakeObject(nested)
			if err != nil {
				return o, err
			}
			object.SetI64(o, nested.Field("key"), p.keys[i])
			if err := object.SetStrField(a, o, nested.Field("name"), "Customer#000001"); err != nil {
				return o, err
			}
			v, err := object.MakeVector(a, object.KInt64, 8)
			if err != nil {
				return o, err
			}
			for j := int64(0); j < 8; j++ {
				if err := v.PushBackI64(a, p.keys[i]+j); err != nil {
					return o, err
				}
			}
			return o, object.SetHandleField(a, o, nested.Field("vals"), v.Ref)
		})
		return err
	})
	if err == nil {
		p.res.Set("object.build_nested_rows_per_s", r)
	}
	return err
}

// objectPages measures adopting page bytes, deep-copying the stored objects
// onto fresh pages, and how full and how large the stored pages are.
func (p *prober) objectPages() error {
	images := make([][]byte, len(p.pages))
	used, size := 0, 0
	for i, pg := range p.pages {
		images[i] = bytes.Clone(pg.Bytes())
		used += int(pg.Used())
		size += len(pg.Data)
	}
	p.res.Set("object.page_fill_frac", float64(used)/float64(size))
	p.res.Set("object.bytes_per_row", float64(used)/float64(len(p.refs)))
	r, err := rate(len(images), func() error {
		for _, b := range images {
			if _, err := object.FromBytes(b, p.reg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("object.frombytes_pages_per_s", r)
	n := min(len(p.refs), 200_000)
	r, err = rate(n, func() error {
		// Graphs larger than a common page (tpch) need the cluster's own.
		_, err := object.BuildPages(p.reg, p.in.Client.Cluster.Cfg.PageSize, n, func(a *object.Allocator, i int) (object.Ref, error) {
			return object.DeepCopy(a, p.refs[i])
		})
		return err
	})
	if err == nil {
		p.res.Set("object.deepcopy_rows_per_s", r)
	}
	return err
}

// omap folds the workload's keys into one growing page-resident map (a
// sum per key), then reads every key back.
func (p *prober) omap() error {
	var m object.OMap
	r, err := rate(len(p.keys), func() error {
		// One page large enough for every distinct key at any load factor,
		// and for the slot arrays the map outgrew on the way.
		a := object.NewAllocator(object.NewPage(4096+256*len(p.keys), p.reg), object.PolicyLightweightReuse)
		var err error
		if m, err = object.MakeMap(a, object.KInt64, object.KInt64, 16); err != nil {
			return err
		}
		for _, k := range p.keys {
			err := m.Update(a, object.Int64Value(k), func(cur object.Value, ok bool) object.Value {
				return object.Int64Value(cur.I + 1)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("object.omap_update_per_s", r)
	r, err = rate(len(p.keys), func() error {
		for _, k := range p.keys {
			if _, ok := m.Get(object.Int64Value(k)); !ok {
				return fmt.Errorf("key %d is not in the map", k)
			}
		}
		return nil
	})
	if err == nil {
		p.res.Set("object.omap_get_per_s", r)
	}
	return err
}

// swiss drives the open-addressing tables on the workload's keys, and a Go
// map on the same keys: swiss.vs_gomap is the keep-or-delete evidence for
// internal/swiss (base: the Go map's lookup rate).
func (p *prober) swiss() error {
	n := min(len(p.keys), len(p.refs))
	keys := p.keys[:n]
	hashes := make([]uint64, n)
	for i, k := range keys {
		hashes[i] = keyHash(k)
	}
	var rt *swiss.RefTable
	r, err := rate(n, func() error {
		rt = swiss.NewRefTable()
		for i, h := range hashes {
			rt.Add(h, p.refs[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("swiss.reftable_add_per_s", r)
	r, err = rate(n, func() error {
		for _, h := range hashes {
			if _, _, ok := rt.Lookup(h); !ok {
				return fmt.Errorf("hash %x is not in the table", h)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("swiss.reftable_lookup_per_s", r)

	// Index and Go map hold each distinct key once, mapped to its first
	// position, and are probed with every key.
	idx := swiss.NewIndex(0)
	gomap := map[int64]uint32{}
	for i, k := range keys {
		if _, ok := gomap[k]; !ok {
			gomap[k] = uint32(i)
			idx.Insert(hashes[i], uint32(i))
		}
	}
	var sink uint32
	swissRate, err := rate(n, func() error {
		for i, h := range hashes {
			k := keys[i]
			slot, ok := idx.Lookup(h, func(s uint32) bool { return keys[s] == k })
			if !ok {
				return fmt.Errorf("key %d is not in the index", k)
			}
			sink += slot
		}
		return nil
	})
	if err != nil {
		return err
	}
	mapRate, _ := rate(n, func() error {
		for _, k := range keys {
			sink += gomap[k]
		}
		return nil
	})
	_ = sink
	p.res.Set("swiss.index_lookup_per_s", swissRate)
	p.res.Set("swiss.vs_gomap", swissRate/mapRate)
	return nil
}

// exchange pushes pages from one producer goroutine to one consumer through
// a replayable exchange that ships each page as the cluster's does (one
// copy into the consumer's memory space), acknowledging as it goes.
func (p *prober) exchange() error {
	const rounds = 4
	n := rounds * len(p.pages)
	tr := cluster.NewMemTransport()
	r, err := rate(n, func() error {
		ex := exchange.New(exchange.Config{Producers: 1, Consumers: 1, Replayable: true,
			Ship: func(pg *object.Page, _, _ int) (*object.Page, error) { return tr.Ship(pg, p.reg) }})
		errc := make(chan error, 1)
		go func() {
			defer ex.CloseProducer(0)
			for seq := 0; seq < n; seq++ {
				if err := ex.Send(exchange.Tag{Seq: seq}, 0, p.pages[seq%len(p.pages)], nil); err != nil {
					errc <- err
					return
				}
			}
			errc <- ex.CloseThread(0, 0, nil)
		}()
		got := 0
		for {
			_, ok, err := ex.Recv(0)
			if err != nil {
				ex.Cancel(err)
				<-errc
				return err
			}
			if !ok {
				break
			}
			got++
			if err := ex.Ack(0, got); err != nil {
				ex.Cancel(err)
				<-errc
				return err
			}
		}
		if err := <-errc; err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("received %d of %d pages", got, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Set("exchange.pages_per_s", r)
	p.res.Set("exchange.bytes_per_s", r*float64(p.pageBytes())/float64(len(p.pages)))
	return nil
}

// wire frames every page with the registry's type table, into and out of
// memory buffers.
func (p *prober) wire() error {
	var types []wire.TypeBinding
	for _, ti := range p.reg.UserTypes() {
		types = append(types, wire.TypeBinding{Code: ti.Code, Name: ti.Name})
	}
	var buf bytes.Buffer
	encode := func() error {
		buf.Reset()
		for i, pg := range p.pages {
			f := &wire.Frame{Kind: wire.KindPage, Tag: wire.Tag{Seq: uint32(i)}, Types: types, Payload: pg.Bytes()}
			if err := wire.Write(&buf, f); err != nil {
				return err
			}
		}
		return nil
	}
	r, err := rate(p.pageBytes(), encode)
	if err != nil {
		return err
	}
	p.res.Set("wire.encode_bytes_per_s", r)
	p.res.Set("wire.frame_overhead_bytes", float64(buf.Len()-p.pageBytes())/float64(len(p.pages)))
	r, err = rate(p.pageBytes(), func() error {
		rd := bytes.NewReader(buf.Bytes())
		for range p.pages {
			if _, err := wire.Read(rd, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		p.res.Set("wire.decode_bytes_per_s", r)
	}
	return err
}

// storage appends the pages to a fresh disk-backed server, loads them back
// through a second server on the same directory, and round-trips them
// through a spill pool.
func (p *prober) storage() error {
	dir := filepath.Join(p.in.Dir, "storage-probe")
	defer os.RemoveAll(dir)
	r, err := rate(p.pageBytes(), func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, err := storage.NewServer(dir, p.reg)
		if err != nil {
			return err
		}
		return s.Append("probe", "pages", p.pages)
	})
	if err != nil {
		return err
	}
	p.res.Set("storage.append_bytes_per_s", r)
	var onDisk int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				onDisk += info.Size()
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	// User bytes: what the rows on these pages hold, at the workload's
	// average payload per row.
	user := float64(p.in.UserBytes) / float64(p.in.Rows) * float64(len(p.refs))
	p.res.Set("storage.disk_bytes_per_user_byte", float64(onDisk)/user)
	r, err = rate(p.pageBytes(), func() error {
		s, err := storage.NewServer(dir, p.reg)
		if err != nil {
			return err
		}
		pages, err := s.Pages("probe", "pages")
		if err == nil && len(pages) != len(p.pages) {
			err = fmt.Errorf("loaded %d of %d pages", len(pages), len(p.pages))
		}
		return err
	})
	if err != nil {
		return err
	}
	p.res.Set("storage.load_bytes_per_s", r)
	r, err = rate(p.pageBytes(), func() error {
		sp := storage.NewSpillPool(filepath.Join(dir, "spill"), p.reg)
		defer sp.Close()
		for _, pg := range p.pages {
			slot, err := sp.Spill(pg)
			if err != nil {
				return err
			}
			if _, err := sp.Load(slot); err != nil {
				return err
			}
			sp.Free(slot)
		}
		return nil
	})
	if err == nil {
		p.res.Set("storage.spill_roundtrip_bytes_per_s", r)
	}
	return err
}
