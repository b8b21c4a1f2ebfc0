// Package matrix provides the dense linear-algebra kernels PC's tools use —
// the stand-in for the native math libraries of the paper (Eigen inside
// lilLinAlg, GSL inside the ML codes, breeze inside the Spark baselines;
// see Table 8). Two multiplication kernels are provided:
// MulNaive (a straightforward triple loop, the GSL analogue) and Mul (a
// transposed, cache-blocked kernel, the Eigen/breeze analogue); Table 8's
// ordering is reproduced by benchmarking them against each other.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix.
func New(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal compares two matrices within tol.
func (m *Dense) Equal(o *Dense, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Add returns m + o.
func (m *Dense) Add(o *Dense) (*Dense, error) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return nil, fmt.Errorf("matrix: add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + o.Data[i]
	}
	return out, nil
}

// Sub returns m − o.
func (m *Dense) Sub(o *Dense) (*Dense, error) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return nil, fmt.Errorf("matrix: sub shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - o.Data[i]
	}
	return out, nil
}

// Scale returns s·m.
func (m *Dense) Scale(s float64) *Dense {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// MulNaive is the straightforward i-j-k triple loop: the GSL-analogue
// kernel in Table 8's comparison.
func MulNaive(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matrix: mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out, nil
}

// Mul multiplies with an i-k-j loop over a transposed access pattern plus
// cache blocking — the Eigen/breeze-analogue kernel. Same results as
// MulNaive, substantially faster on large inputs.
func Mul(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("matrix: mul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	const block = 64
	out := New(a.Rows, b.Cols)
	n, m, p := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < n; ii += block {
		iMax := min(ii+block, n)
		for kk := 0; kk < m; kk += block {
			kMax := min(kk+block, m)
			for i := ii; i < iMax; i++ {
				outRow := out.Data[i*p : (i+1)*p]
				aRow := a.Data[i*m : (i+1)*m]
				for k := kk; k < kMax; k++ {
					av := aRow[k]
					if av == 0 {
						continue
					}
					bRow := b.Data[k*p : (k+1)*p]
					for j, bv := range bRow {
						outRow[j] += av * bv
					}
				}
			}
		}
	}
	return out, nil
}

// MulVec returns m·x.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("matrix: mulvec shape mismatch %dx%d · %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Inverse computes m⁻¹ by Gauss–Jordan elimination with partial pivoting.
func (m *Dense) Inverse() (*Dense, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a.At(r, col)) > math.Abs(a.At(pivot, col)) {
				pivot = r
			}
		}
		if math.Abs(a.At(pivot, col)) < 1e-12 {
			return nil, fmt.Errorf("matrix: singular at column %d", col)
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Dense, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Identity returns the n×n identity.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Solve solves A·x = b via the inverse (adequate at the small driver-side
// sizes PC's tools use it for, e.g. (XᵀX)⁻¹ in least squares).
func Solve(a *Dense, b []float64) ([]float64, error) {
	inv, err := a.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.MulVec(b)
}

// RowSum returns per-row sums (lilLinAlg's rowSum).
func (m *Dense) RowSum() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// ColSum returns per-column sums (lilLinAlg's colSum).
func (m *Dense) ColSum() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out[j] += v
		}
	}
	return out
}

// MinElement returns the smallest element.
func (m *Dense) MinElement() float64 {
	best := math.Inf(1)
	for _, v := range m.Data {
		if v < best {
			best = v
		}
	}
	return best
}

// MaxElement returns the largest element.
func (m *Dense) MaxElement() float64 {
	best := math.Inf(-1)
	for _, v := range m.Data {
		if v > best {
			best = v
		}
	}
	return best
}
