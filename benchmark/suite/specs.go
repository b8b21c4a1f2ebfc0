package suite

// Specs is the suite: eight workloads, each stressing a different mix of
// layers. For every optimisation target there is one workload that exercises
// the mechanism and one that bypasses it (where the prediction is "no
// change"): agg_narrow ships almost nothing while agg_wide ships every group;
// agg_wide_proc is agg_wide across a real process boundary; kmeans is all
// fixed per-job cost while the others amortise it.
var Specs = []Spec{
	{
		Name: "agg_narrow",
		Why:  "4M-row group-by into 1024 groups: scan, kernels and pre-agg sink do the work, the shuffle carries a few KB; per-row overhead shows, exchange changes must not",
		Size: "4000000 rows {grp,val int64}, grp uniform in [0,1024)",
		Jobs: 17, Warm: 2,
		new: func(scale int) workload { return &aggWorkload{n: scaled(4_000_000, scale), groups: 1024} },
	},
	{
		Name: "agg_wide",
		Why:  "same plan into 100k groups: every row's group is shipped, so exchange lanes, map merge, finalize and checkpoint snapshots dominate and kernels do little",
		Size: "400000 rows {grp,val int64}, grp uniform in [0,100000)",
		Jobs: 22, Warm: 2,
		new: func(scale int) workload {
			return &aggWorkload{n: scaled(400_000, scale), groups: scaled(100_000, scale)}
		},
	},
	{
		Name: "agg_wide_proc",
		Why:  "agg_wide, byte-identical input, over DataDir and pcworker OS processes: adds wire frames, socket relay, disk load and durable cuts; agg_wide is its control",
		Size: "as agg_wide; cluster opened with DataDir and ProcBin, unix sockets",
		Jobs: 14, Warm: 2,
		new: func(scale int) workload {
			return &aggWorkload{n: scaled(400_000, scale), groups: scaled(100_000, scale), proc: true}
		},
	},
	{
		Name: "join_part",
		Why:  "hash-partition inner join 1M x 100k: repartition sinks, two exchanges, join-table build and probe, deep copy; no aggregation state at all",
		Size: "left 1000000 x right 100000 rows {key,payload int64}, 100000 distinct keys, permuted",
		Jobs: 28, Warm: 2,
		new: func(scale int) workload {
			return &joinWorkload{nLeft: scaled(1_000_000, scale), nRight: scaled(100_000, scale)}
		},
	},
	{
		Name: "sort_full",
		Why:  "unbounded ORDER BY on two keys: sort-key encoding, per-thread runs and the single merge consumer; the slowest path per row and nothing else runs it",
		Size: "100000 rows {grp,val int64}, grp uniform in [0,499)",
		Jobs: 16, Warm: 1,
		new: func(scale int) workload { return &sortWorkload{n: scaled(100_000, scale), groups: 499} },
	},
	{
		Name: "tpch_objects",
		Why:  "paper Table 3 on nested Customer-Order-Lineitem objects: handle chasing, strings, vectors, map-valued aggregates, top-k; object reads and deep copy, not flat scans",
		Size: "tpch.Generate(Customers: 20000), customers-per-supplier + count + top-16 Jaccard",
		Jobs: 13, Warm: 2,
		new: func(scale int) workload { return &tpchWorkload{customers: scaled(20_000, scale)} },
	},
	{
		Name: "kmeans",
		Why:  "paper Table 6, one k-means iteration per job: many short jobs, so the fixed per-job cost (compile, optimize, plan, schedule) that every other workload amortises shows",
		Size: "300000 points x d=10, k=10, on a 1/256 lattice",
		Jobs: 80, Warm: 5,
		new: func(scale int) workload { return &kmeansWorkload{n: scaled(300_000, scale), d: 10, k: 10} },
	},
	{
		Name: "ingest_scan",
		Why:  "the write path beside the read path: build pages, load into a DataDir cluster, close, reopen, count, scan, drop; a layout change that helps queries but costs loading or bytes shows here",
		Size: "250000 flat rows {key,payload int64} built and loaded per job",
		Jobs: 16, Warm: 1,
		new: func(scale int) workload { return &ingestWorkload{n: scaled(250_000, scale)} },
	},
}
