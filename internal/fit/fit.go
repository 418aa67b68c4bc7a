// Package fit provides the regression machinery used to extract the paper's
// analytical leakage and delay models from circuit-level characterization
// data: ordinary least squares, multiple linear regression, and a
// Levenberg–Marquardt nonlinear least-squares solver with numerical
// Jacobians.
package fit

import (
	"errors"
	"fmt"
	"math"
)

// Stats summarizes the quality of a fit.
type Stats struct {
	R2         float64 // coefficient of determination
	RMSE       float64 // root mean squared error
	Iterations int     // solver iterations (nonlinear fits)
}

func (s Stats) String() string {
	return fmt.Sprintf("R2=%.5f RMSE=%.4g iters=%d", s.R2, s.RMSE, s.Iterations)
}

// ErrSingular is returned when a normal-equation system cannot be solved.
var ErrSingular = errors.New("fit: singular system")

// ErrNoConverge is returned when the nonlinear solver exhausts its iteration
// budget without meeting the tolerance. The best parameters found so far are
// still returned alongside it.
var ErrNoConverge = errors.New("fit: did not converge")

// Linear fits y = a + b*x by ordinary least squares.
func Linear(xs, ys []float64) (a, b float64, stats Stats, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, Stats{}, fmt.Errorf("fit: need >= 2 paired samples, got %d/%d", len(xs), len(ys))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, Stats{}, ErrSingular
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	pred := make([]float64, len(xs))
	for i := range xs {
		pred[i] = a + b*xs[i]
	}
	stats = Evaluate(ys, pred)
	return a, b, stats, nil
}

// Evaluate computes fit statistics for predictions against observations.
func Evaluate(obs, pred []float64) Stats {
	if len(obs) != len(pred) || len(obs) == 0 {
		return Stats{R2: math.NaN(), RMSE: math.NaN()}
	}
	var mean float64
	for _, y := range obs {
		mean += y
	}
	mean /= float64(len(obs))
	var ssRes, ssTot float64
	for i := range obs {
		d := obs[i] - pred[i]
		ssRes += d * d
		t := obs[i] - mean
		ssTot += t * t
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 0 {
		r2 = 0
	}
	return Stats{R2: r2, RMSE: math.Sqrt(ssRes / float64(len(obs)))}
}

// SolveLinear solves the dense system A x = b by Gaussian elimination with
// partial pivoting. A is row-major, square, and is not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("fit: bad system dimensions %dx? vs %d", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("fit: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-300 {
			return nil, ErrSingular
		}
		m[col], m[p] = m[p], m[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * x[j]
		}
		x[i] = sum / m[i][i]
	}
	return x, nil
}

// LinearRegression fits y = sum_j coef_j * basis_j(x) by solving the normal
// equations. rows[i] is the basis-function row for observation i.
func LinearRegression(rows [][]float64, ys []float64) ([]float64, Stats, error) {
	if len(rows) != len(ys) || len(rows) == 0 {
		return nil, Stats{}, fmt.Errorf("fit: need paired rows/ys, got %d/%d", len(rows), len(ys))
	}
	k := len(rows[0])
	ata := make([][]float64, k)
	atb := make([]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	for i, row := range rows {
		if len(row) != k {
			return nil, Stats{}, fmt.Errorf("fit: row %d has %d features, want %d", i, len(row), k)
		}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				ata[a][b] += row[a] * row[b]
			}
			atb[a] += row[a] * ys[i]
		}
	}
	// Tikhonov whisper to keep near-singular systems solvable.
	for i := 0; i < k; i++ {
		ata[i][i] *= 1 + 1e-12
	}
	coef, err := SolveLinear(ata, atb)
	if err != nil {
		return nil, Stats{}, err
	}
	pred := make([]float64, len(ys))
	for i, row := range rows {
		for j := range coef {
			pred[i] += coef[j] * row[j]
		}
	}
	return coef, Evaluate(ys, pred), nil
}

// Model is a parametric scalar function of a feature vector. It must
// neither modify nor retain params: the solver passes one reused buffer.
type Model func(params []float64, x []float64) float64

// LMOptions configures the Levenberg–Marquardt solver.
type LMOptions struct {
	MaxIterations int     // default 200
	Tolerance     float64 // relative SSE improvement to stop, default 1e-12
	InitialLambda float64 // default 1e-3
	// Weights scales each residual (optional, len == observations).
	Weights []float64
	// Lower and Upper clamp parameters after each step (optional).
	Lower, Upper []float64
}

func (o LMOptions) withDefaults() LMOptions {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-12
	}
	if o.InitialLambda == 0 {
		o.InitialLambda = 1e-3
	}
	return o
}

// LevenbergMarquardt minimizes sum_i w_i*(model(p, xs[i]) - ys[i])^2 over p,
// starting from p0. It returns the best parameters found, fit statistics,
// and an error when an option's length does not match the samples or p0, or
// when the iteration budget is exhausted far from a stationary point.
//
// Each iteration evaluates the model once per (sample, parameter) for the
// forward-difference Jacobian, around the stored model values at p, and once
// per sample for each candidate step; an accepted candidate's values become
// the next base. The buffers are allocated once per call.
func LevenbergMarquardt(model Model, xs [][]float64, ys []float64, p0 []float64, opts LMOptions) ([]float64, Stats, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, Stats{}, fmt.Errorf("fit: need paired samples, got %d/%d", len(xs), len(ys))
	}
	if len(p0) == 0 {
		return nil, Stats{}, errors.New("fit: empty initial parameter vector")
	}
	n, np := len(xs), len(p0)
	if opts.Weights != nil && len(opts.Weights) != n {
		return nil, Stats{}, fmt.Errorf("fit: LMOptions.Weights has length %d, want %d (one per sample)", len(opts.Weights), n)
	}
	if opts.Lower != nil && len(opts.Lower) != np {
		return nil, Stats{}, fmt.Errorf("fit: LMOptions.Lower has length %d, want %d (one per parameter)", len(opts.Lower), np)
	}
	if opts.Upper != nil && len(opts.Upper) != np {
		return nil, Stats{}, fmt.Errorf("fit: LMOptions.Upper has length %d, want %d (one per parameter)", len(opts.Upper), np)
	}
	opts = opts.withDefaults()
	p := append([]float64(nil), p0...)

	weight := func(i int) float64 {
		if opts.Weights != nil {
			return opts.Weights[i]
		}
		return 1
	}
	clampP := func(p []float64) {
		for i := range p {
			if opts.Lower != nil && p[i] < opts.Lower[i] {
				p[i] = opts.Lower[i]
			}
			if opts.Upper != nil && p[i] > opts.Upper[i] {
				p[i] = opts.Upper[i]
			}
		}
	}

	// sse stores each sample's model value at p in vals.
	sse := func(p, vals []float64) float64 {
		var s float64
		for i := range xs {
			vals[i] = model(p, xs[i])
			r := (vals[i] - ys[i]) * weight(i)
			s += r * r
		}
		return s
	}
	base, vals := make([]float64, n), make([]float64, n)
	res, jac := make([]float64, n), make([]float64, n*np)
	jtj, damped := make([][]float64, np), make([][]float64, np)
	for a := range jtj {
		jtj[a], damped[a] = make([]float64, np), make([]float64, np)
	}
	jtr, cand, pert := make([]float64, np), make([]float64, np), make([]float64, np)

	lambda := opts.InitialLambda
	curSSE := sse(p, base)
	iters := 0
	converged := false

	for !converged && iters < opts.MaxIterations {
		iters++
		// Residuals and numerical Jacobian; jac is row-major, one row per sample.
		for i := range xs {
			res[i] = (ys[i] - base[i]) * weight(i)
		}
		copy(pert, p)
		for j := 0; j < np; j++ {
			h := 1e-6 * math.Max(math.Abs(p[j]), 1e-6)
			pert[j] = p[j] + h
			for i := range xs {
				jac[i*np+j] = (model(pert, xs[i]) - base[i]) * weight(i) / h
			}
			pert[j] = p[j]
		}
		// Normal equations (JtJ + lambda*diag(JtJ)) d = Jt r.
		for a := 0; a < np; a++ {
			clear(jtj[a])
		}
		clear(jtr)
		for i := range xs {
			row := jac[i*np : (i+1)*np]
			for a := 0; a < np; a++ {
				for b := 0; b < np; b++ {
					jtj[a][b] += row[a] * row[b]
				}
				jtr[a] += row[a] * res[i]
			}
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			for a := 0; a < np; a++ {
				copy(damped[a], jtj[a])
				diag := jtj[a][a]
				if diag == 0 {
					diag = 1e-12
				}
				damped[a][a] += lambda * diag
			}
			delta, err := SolveLinear(damped, jtr)
			if err != nil {
				lambda *= 10
				continue
			}
			for j := range cand {
				cand[j] = p[j] + delta[j]
			}
			clampP(cand)
			candSSE := sse(cand, vals)
			if candSSE < curSSE {
				rel := (curSSE - candSSE) / math.Max(curSSE, 1e-300)
				p, cand = cand, p
				base, vals = vals, base
				curSSE = candSSE
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if rel < opts.Tolerance {
					converged = true
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			converged = true // stuck at a (local) minimum
		}
	}

	stats := Evaluate(ys, base)
	stats.Iterations = iters
	if !converged {
		return p, stats, ErrNoConverge
	}
	return p, stats, nil
}
