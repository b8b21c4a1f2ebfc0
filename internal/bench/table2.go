package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/matrix"
	"repro/linalg"
	"repro/pc"
)

// Table 2: the lilLinAlg benchmark — Gram matrix, least-squares linear
// regression, and nearest-neighbour search at several dimensionalities,
// lilLinAlg-on-PC vs the baseline dataflow engine. (The paper compares
// against SystemML, Spark mllib, and SciDB; the baseline plays the
// JVM-dataflow role.)

// Table2Config sizes the experiment.
type Table2Config struct {
	N    int   // points (paper: 10^6)
	Dims []int // dimensionalities (paper: 10, 100, 1000)
	Seed int64
}

// DefaultTable2 is the laptop-scale default.
func DefaultTable2() Table2Config {
	return Table2Config{N: 4000, Dims: []int{10, 50}, Seed: 1}
}

// MatRowRec is the baseline's row record.
type MatRowRec struct {
	Idx int64
	X   []float64
}

// GramPartRec accumulates a partial Gram matrix.
type GramPartRec struct {
	D    int
	Data []float64 // row-major d×d
}

// VecPartRec accumulates a partial d-vector (Xᵀy).
type VecPartRec struct{ Data []float64 }

// NNPartRec accumulates a partial nearest-neighbour result.
type NNPartRec struct {
	Row  int64
	Dist float64
}

func init() {
	baseline.Register(MatRowRec{})
	baseline.Register(GramPartRec{})
	baseline.Register(VecPartRec{})
	baseline.Register(NNPartRec{})
}

// RunTable2 executes the three computations on both engines.
func RunTable2(cfg Table2Config) (*Table, error) {
	t := &Table{
		Title:   "Table 2: linear algebra (lilLinAlg on PC vs baseline dataflow)",
		Columns: []string{"PC", "baseline", "speedup"},
		Notes: []string{
			"paper: PC fastest on all higher-dimensional runs (up to 13x vs SciDB, 5x vs mllib)",
		},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, d := range cfg.Dims {
		X := matrix.New(cfg.N, d)
		for i := range X.Data {
			X.Data[i] = rng.NormFloat64()
		}
		y := matrix.New(cfg.N, 1)
		for i := 0; i < cfg.N; i++ {
			y.Set(i, 0, rng.NormFloat64())
		}
		q := make([]float64, d)
		for i := range q {
			q[i] = rng.NormFloat64()
		}

		// PC / lilLinAlg.
		client, err := pc.Connect(pc.Config{Workers: 4, PageSize: 1 << 20})
		if err != nil {
			return nil, err
		}
		blockSize := 256
		if d > blockSize {
			blockSize = d
		}
		eng, err := linalg.NewEngine(client, "la", blockSize)
		if err != nil {
			return nil, err
		}
		dX, err := eng.Load("X", X)
		if err != nil {
			return nil, err
		}
		dy, err := eng.Load("y", y)
		if err != nil {
			return nil, err
		}
		pcGram, err := Timed(func() error { _, err := eng.Gram(dX); return err })
		if err != nil {
			return nil, err
		}
		pcReg, err := Timed(func() error { _, err := eng.LeastSquares(dX, dy); return err })
		if err != nil {
			return nil, err
		}
		pcNN, err := Timed(func() error {
			_, _, err := eng.NearestNeighbor(dX, matrix.Identity(d), q)
			return err
		})
		if err != nil {
			return nil, err
		}

		// Baseline.
		ctx := baseline.NewContext(4)
		recs := make([]baseline.Record, cfg.N)
		for i := 0; i < cfg.N; i++ {
			recs[i] = MatRowRec{Idx: int64(i), X: append([]float64(nil), X.Row(i)...)}
		}
		if err := ctx.Store("X", ctx.Parallelize(recs)); err != nil {
			return nil, err
		}
		ys := y.Data

		blGramFn := func() error {
			ds, err := ctx.Read("X")
			if err != nil {
				return err
			}
			parts := ds.Map(func(r baseline.Record) baseline.Record {
				x := r.(MatRowRec).X
				g := make([]float64, d*d)
				for i := 0; i < d; i++ {
					for j := 0; j < d; j++ {
						g[i*d+j] = x[i] * x[j]
					}
				}
				return GramPartRec{D: d, Data: g}
			})
			red, err := parts.ReduceByKey(
				func(baseline.Record) interface{} { return 0 },
				func(a, b baseline.Record) baseline.Record {
					l, r := a.(GramPartRec), b.(GramPartRec)
					out := make([]float64, len(l.Data))
					for i := range out {
						out[i] = l.Data[i] + r.Data[i]
					}
					return GramPartRec{D: d, Data: out}
				})
			if err != nil {
				return err
			}
			_ = red.Collect()
			return nil
		}
		blGram, err := Timed(blGramFn)
		if err != nil {
			return nil, err
		}
		blReg, err := Timed(func() error {
			if err := blGramFn(); err != nil {
				return err
			}
			ds, err := ctx.Read("X")
			if err != nil {
				return err
			}
			parts := ds.Map(func(r baseline.Record) baseline.Record {
				row := r.(MatRowRec)
				v := make([]float64, d)
				for i := 0; i < d; i++ {
					v[i] = row.X[i] * ys[row.Idx]
				}
				return VecPartRec{Data: v}
			})
			red, err := parts.ReduceByKey(
				func(baseline.Record) interface{} { return 0 },
				func(a, b baseline.Record) baseline.Record {
					l, r := a.(VecPartRec), b.(VecPartRec)
					out := make([]float64, len(l.Data))
					for i := range out {
						out[i] = l.Data[i] + r.Data[i]
					}
					return VecPartRec{Data: out}
				})
			if err != nil {
				return err
			}
			_ = red.Collect()
			return nil
		})
		if err != nil {
			return nil, err
		}
		blNN, err := Timed(func() error {
			ds, err := ctx.Read("X")
			if err != nil {
				return err
			}
			parts := ds.Map(func(r baseline.Record) baseline.Record {
				row := r.(MatRowRec)
				dist := 0.0
				for i := range q {
					diff := row.X[i] - q[i]
					dist += diff * diff
				}
				return NNPartRec{Row: row.Idx, Dist: dist}
			})
			red, err := parts.ReduceByKey(
				func(baseline.Record) interface{} { return 0 },
				func(a, b baseline.Record) baseline.Record {
					if a.(NNPartRec).Dist <= b.(NNPartRec).Dist {
						return a
					}
					return b
				})
			if err != nil {
				return err
			}
			_ = red.Collect()
			return nil
		})
		if err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows,
			Row{Name: fmt.Sprintf("gram d=%d", d), Cells: []string{ms(pcGram), ms(blGram), ratio(blGram, pcGram)}},
			Row{Name: fmt.Sprintf("regression d=%d", d), Cells: []string{ms(pcReg), ms(blReg), ratio(blReg, pcReg)}},
			Row{Name: fmt.Sprintf("nearest-nb d=%d", d), Cells: []string{ms(pcNN), ms(blNN), ratio(blNN, pcNN)}},
		)
	}
	return t, nil
}
