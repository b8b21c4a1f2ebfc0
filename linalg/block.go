// Package linalg is lilLinAlg: the small Matlab-like language and library
// for distributed linear algebra that the paper's first benchmark builds on
// top of PC (§8.3). Huge matrices are chunked into MatrixBlock objects
// stored as PC sets; matrix operations compile to Join/Aggregate
// computation graphs; a tiny DSL (`beta = (X '* X)^-1 %*% (X '* y)`) drives
// them. Block-local math uses package matrix (the Eigen substitute).
package linalg

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/object"
	"repro/pc"
)

// DefaultBlockSize is the default rows/cols per MatrixBlock (the paper uses
// 1000×1000 blocks on multi-MB pages; scaled down here).
const DefaultBlockSize = 64

// Engine owns a connection to a PC cluster plus the registered MatrixBlock
// type and a namespace for temporary sets.
type Engine struct {
	Client    *pc.Client
	Db        string
	BlockSize int

	Block *pc.TypeInfo
	tmpN  int
}

// Block field handles (resolved once).
type blockFields struct {
	chunkRow, chunkCol *pc.Field
	rows, cols         *pc.Field
	values             *pc.Field
}

func (e *Engine) fields() blockFields {
	return blockFields{
		chunkRow: e.Block.Field("chunkRow"),
		chunkCol: e.Block.Field("chunkCol"),
		rows:     e.Block.Field("rows"),
		cols:     e.Block.Field("cols"),
		values:   e.Block.Field("values"),
	}
}

// NewEngine registers the MatrixBlock schema and creates the working
// database.
func NewEngine(client *pc.Client, db string, blockSize int) (*Engine, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	block := pc.NewStruct("MatrixBlock").
		AddField("chunkRow", pc.KInt32).
		AddField("chunkCol", pc.KInt32).
		AddField("rows", pc.KInt32).
		AddField("cols", pc.KInt32).
		AddField("values", pc.KHandle).
		MustBuild(client.Registry())
	if err := client.CreateDatabase(db); err != nil {
		return nil, err
	}
	return &Engine{Client: client, Db: db, BlockSize: blockSize, Block: block}, nil
}

// DistMatrix is a handle to a distributed matrix: a PC set of MatrixBlocks
// plus the logical shape.
type DistMatrix struct {
	Set        string
	Rows, Cols int
}

// blocksFor returns the block-grid dimensions for a shape.
func (e *Engine) blocksFor(rows, cols int) (int, int) {
	br := (rows + e.BlockSize - 1) / e.BlockSize
	bc := (cols + e.BlockSize - 1) / e.BlockSize
	return br, bc
}

func (e *Engine) tempSet(prefix string) string {
	e.tmpN++
	return fmt.Sprintf("%s_%d", prefix, e.tmpN)
}

// writeBlock allocates a MatrixBlock on the allocator (the in-place,
// on-page construction pattern of §8.3.1's Eigen mapping).
func (e *Engine) writeBlock(a *pc.Allocator, cr, cc, rows, cols int, data []float64) (pc.Ref, error) {
	f := e.fields()
	b, err := a.MakeObject(e.Block)
	if err != nil {
		return pc.Ref{}, err
	}
	object.SetI32(b, f.chunkRow, int32(cr))
	object.SetI32(b, f.chunkCol, int32(cc))
	object.SetI32(b, f.rows, int32(rows))
	object.SetI32(b, f.cols, int32(cols))
	v, err := pc.MakeVector(a, pc.KFloat64, len(data))
	if err != nil {
		return pc.Ref{}, err
	}
	if err := v.AppendFloat64s(a, data); err != nil {
		return pc.Ref{}, err
	}
	if err := object.SetHandleField(a, b, f.values, v.Ref); err != nil {
		return pc.Ref{}, err
	}
	return b, nil
}

// readBlock views a stored MatrixBlock as a dense sub-matrix plus its grid
// coordinates.
func (e *Engine) readBlock(r pc.Ref) (cr, cc int, m *matrix.Dense) {
	f := e.fields()
	cr = int(object.GetI32(r, f.chunkRow))
	cc = int(object.GetI32(r, f.chunkCol))
	rows := int(object.GetI32(r, f.rows))
	cols := int(object.GetI32(r, f.cols))
	vals := object.AsVector(object.GetHandleField(r, f.values)).Float64Slice()
	m = &matrix.Dense{Rows: rows, Cols: cols, Data: vals}
	return cr, cc, m
}

// Load chunks a dense matrix into MatrixBlocks and stores them as a new PC
// set, returning the distributed handle.
func (e *Engine) Load(name string, d *matrix.Dense) (*DistMatrix, error) {
	set := e.tempSet(name)
	if err := e.Client.CreateSet(e.Db, set, "MatrixBlock"); err != nil {
		return nil, err
	}
	br, bc := e.blocksFor(d.Rows, d.Cols)
	n := br * bc
	pages, err := e.Client.BuildPages(n, func(a *pc.Allocator, i int) (pc.Ref, error) {
		cr, cc := i/bc, i%bc
		r0, c0 := cr*e.BlockSize, cc*e.BlockSize
		rN := min(e.BlockSize, d.Rows-r0)
		cN := min(e.BlockSize, d.Cols-c0)
		data := make([]float64, rN*cN)
		for r := 0; r < rN; r++ {
			copy(data[r*cN:(r+1)*cN], d.Row(r0 + r)[c0:c0+cN])
		}
		return e.writeBlock(a, cr, cc, rN, cN, data)
	})
	if err != nil {
		return nil, err
	}
	if err := e.Client.SendData(e.Db, set, pages); err != nil {
		return nil, err
	}
	return &DistMatrix{Set: set, Rows: d.Rows, Cols: d.Cols}, nil
}

// Fetch gathers a distributed matrix back to the driver as a dense matrix.
func (e *Engine) Fetch(m *DistMatrix) (*matrix.Dense, error) {
	out := matrix.New(m.Rows, m.Cols)
	err := e.Client.ScanSet(e.Db, m.Set, func(r pc.Ref) bool {
		cr, cc, blk := e.readBlock(r)
		r0, c0 := cr*e.BlockSize, cc*e.BlockSize
		for i := 0; i < blk.Rows; i++ {
			copy(out.Row(r0 + i)[c0:c0+blk.Cols], blk.Row(i))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Drop removes a distributed matrix's backing set.
func (e *Engine) Drop(m *DistMatrix) error { return e.Client.DropSet(e.Db, m.Set) }

// pairKey encodes a block coordinate as an aggregation key.
func pairKey(r, c int32) int64 { return int64(r)<<20 | int64(uint32(c)&0xFFFFF) }

func unpairKey(k int64) (int32, int32) { return int32(k >> 20), int32(k & 0xFFFFF) }
