package fit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// leakageForm and delayForm are the paper's model shapes, as
// model.FitLeakage and model.FitDelay fit them.
func leakageForm(p, x []float64) float64 {
	return p[0] + p[1]*math.Exp(p[2]*x[0]) + p[3]*math.Exp(p[4]*x[1])
}

func delayForm(p, x []float64) float64 {
	return p[0] + p[1]*math.Exp(p[2]*x[0]) + p[3]*x[1]
}

// noisyLeakage is TestLMNoisyTwoExponentials' data set: the leakage form
// over a 7 × 5 (Vth, Tox) grid with 0.1% relative noise.
func noisyLeakage() (xs [][]float64, ys []float64) {
	truth := []float64{0.2, 30, -20, 500, -1.0}
	rng := rand.New(rand.NewSource(42))
	for v := 0.2; v <= 0.5; v += 0.05 {
		for tox := 10.0; tox <= 14; tox += 1 {
			xs = append(xs, []float64{v, tox})
			ys = append(ys, leakageForm(truth, []float64{v, tox})*(1+0.001*rng.NormFloat64()))
		}
	}
	return xs, ys
}

func TestLMIterationsCountsWhatRan(t *testing.T) {
	xs, ys := noisyLeakage()
	p0 := []float64{0, 10, -10, 100, -0.5}
	_, stats, err := LevenbergMarquardt(leakageForm, xs, ys, p0, LMOptions{MaxIterations: 3})
	if !errors.Is(err, ErrNoConverge) {
		t.Fatalf("3-iteration budget: err = %v, want ErrNoConverge", err)
	}
	if stats.Iterations != 3 {
		t.Errorf("exhausted 3-iteration budget reports Iterations = %d, want 3", stats.Iterations)
	}

	// A fit that converges reports the count it always has: the
	// iteration that met the tolerance is the last one counted.
	xs, ys = nil, nil
	for x := 0.0; x <= 2; x += 0.05 {
		xs = append(xs, []float64{x})
		ys = append(ys, expModel([]float64{1.5, 2.0, -3.0}, []float64{x}))
	}
	_, got, err := LevenbergMarquardt(expModel, xs, ys, []float64{1, 1, -1}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := referenceLM(expModel, xs, ys, []float64{1, 1, -1}, LMOptions{})
	if got.Iterations != want.Iterations {
		t.Errorf("converged fit reports Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
}

func TestLMRefusesMismatchedOptionLengths(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}}
	ys := []float64{1, 2, 3}
	p0 := []float64{1, 1}
	model := func(p, x []float64) float64 { return p[0] + p[1]*x[0] }
	for _, tc := range []struct {
		name string
		opts LMOptions
		want string
	}{
		{"short weights", LMOptions{Weights: []float64{1, 1}}, "Weights has length 2, want 3"},
		{"empty weights", LMOptions{Weights: []float64{}}, "Weights has length 0, want 3"},
		{"short lower", LMOptions{Lower: []float64{0}}, "Lower has length 1, want 2"},
		{"short upper", LMOptions{Upper: []float64{9}}, "Upper has length 1, want 2"},
		{"short upper, good lower", LMOptions{Lower: []float64{0, 0}, Upper: []float64{}}, "Upper has length 0, want 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evals := 0
			counted := func(p, x []float64) float64 { evals++; return model(p, x) }
			_, _, err := LevenbergMarquardt(counted, xs, ys, p0, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one containing %q", err, tc.want)
			}
			if evals != 0 {
				t.Errorf("model evaluated %d times before the refusal", evals)
			}
		})
	}
}

// FuzzLevenbergMarquardt checks LevenbergMarquardt against referenceLM,
// the solver as it was before its buffers were reused: on a leakage- or
// delay-shaped data set of 6–63 samples over a Vth × Tox grid, with or
// without weights and bounds, at a budget of 1–60 iterations, both must
// return the same bits for every parameter, R² and RMSE, and the same
// error. Both run on this machine, so the check holds on any GOARCH.
// Iterations is left to TestLMIterationsCountsWhatRan: the two count an
// exhausted budget differently.
func FuzzLevenbergMarquardt(f *testing.F) {
	// The default characterization grid: 7 Vth × 9 Tox.
	f.Add(true, uint8(5), uint8(6), int64(1), 0.01, 0.5, true, true, uint8(59))
	f.Add(false, uint8(5), uint8(6), int64(2), 0.001, 0.2, false, true, uint8(59))
	f.Add(true, uint8(0), uint8(0), int64(3), 0.0, 0.9, false, false, uint8(10))
	f.Fuzz(func(t *testing.T, leakage bool, nv, nt uint8, seed int64, noise, spread float64, weighted, bounded bool, budget uint8) {
		nVth, nTox := 2+int(nv%6), 3+int(nt%7)
		noise, spread = unitFraction(noise)*0.2, unitFraction(spread)
		rng := rand.New(rand.NewSource(seed))
		// The bounds are the ones model.FitDelay and model.FitLeakage set.
		model := Model(delayForm)
		truth := []float64{rng.Float64(), 0.01 + rng.Float64(), 1 + 5*rng.Float64(), 0.1 * rng.Float64()}
		lower := []float64{math.Inf(-1), 0, 0.1, 0}
		upper := []float64{math.Inf(1), math.Inf(1), 30, math.Inf(1)}
		if leakage {
			model = leakageForm
			truth = []float64{rng.Float64(), 1 + 99*rng.Float64(), -40 + 35*rng.Float64(), 10 + 990*rng.Float64(), -2 + 1.8*rng.Float64()}
			lower = []float64{0, 0, -80, 0, -8}
			upper = []float64{math.Inf(1), math.Inf(1), -0.5, math.Inf(1), -0.05}
		}
		var xs [][]float64
		var ys, weights []float64
		for a := 0; a < nVth; a++ {
			for b := 0; b < nTox; b++ {
				x := []float64{0.2 + 0.3*float64(a)/float64(nVth-1), 10 + 4*float64(b)/float64(nTox-1)}
				y := model(truth, x) * (1 + noise*rng.NormFloat64())
				xs, ys, weights = append(xs, x), append(ys, y), append(weights, 1/math.Max(y, 1e-30))
			}
		}
		p0 := make([]float64, len(truth))
		for j := range p0 {
			p0[j] = truth[j] * (1 + spread*rng.NormFloat64())
		}
		opts := LMOptions{MaxIterations: 1 + int(budget%60)}
		if weighted {
			opts.Weights = weights
		}
		if bounded {
			opts.Lower, opts.Upper = lower, upper
		}

		want, wantStats, wantErr := referenceLM(model, xs, ys, p0, opts)
		got, gotStats, gotErr := LevenbergMarquardt(model, xs, ys, p0, opts)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("err = %v, want %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d parameters, want %d", len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("p[%d] = %x, want %x", j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
		if math.Float64bits(gotStats.R2) != math.Float64bits(wantStats.R2) || math.Float64bits(gotStats.RMSE) != math.Float64bits(wantStats.RMSE) {
			t.Errorf("R2, RMSE = %v, %v, want %v, %v", gotStats.R2, gotStats.RMSE, wantStats.R2, wantStats.RMSE)
		}
	})
}

// unitFraction maps any float64 into [0, 1).
func unitFraction(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 1)
}

// referenceLM is LevenbergMarquardt as it was before each iteration reused
// its buffers and the base model values, copied verbatim (Iterations
// included, which counts one more than ran when the budget runs out).
// FuzzLevenbergMarquardt holds the solver to its bits.
//
// referenceLM minimizes sum_i w_i*(model(p, xs[i]) - ys[i])^2 over p,
// starting from p0. It returns the best parameters found, fit statistics,
// and an error when the system is singular or the iteration budget is
// exhausted far from a stationary point.
func referenceLM(model Model, xs [][]float64, ys []float64, p0 []float64, opts LMOptions) ([]float64, Stats, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, Stats{}, fmt.Errorf("fit: need paired samples, got %d/%d", len(xs), len(ys))
	}
	if len(p0) == 0 {
		return nil, Stats{}, errors.New("fit: empty initial parameter vector")
	}
	opts = opts.withDefaults()
	np := len(p0)
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

	sse := func(p []float64) float64 {
		var s float64
		for i := range xs {
			r := (model(p, xs[i]) - ys[i]) * weight(i)
			s += r * r
		}
		return s
	}

	lambda := opts.InitialLambda
	curSSE := sse(p)
	iters := 0
	converged := false

	for ; iters < opts.MaxIterations; iters++ {
		// Residuals and numerical Jacobian.
		res := make([]float64, len(xs))
		jac := make([][]float64, len(xs))
		for i := range xs {
			res[i] = (ys[i] - model(p, xs[i])) * weight(i)
			jac[i] = make([]float64, np)
			for j := 0; j < np; j++ {
				h := 1e-6 * math.Max(math.Abs(p[j]), 1e-6)
				pj := append([]float64(nil), p...)
				pj[j] += h
				jac[i][j] = (model(pj, xs[i]) - model(p, xs[i])) * weight(i) / h
			}
		}
		// Normal equations (JtJ + lambda*diag(JtJ)) d = Jt r.
		jtj := make([][]float64, np)
		jtr := make([]float64, np)
		for a := 0; a < np; a++ {
			jtj[a] = make([]float64, np)
		}
		for i := range xs {
			for a := 0; a < np; a++ {
				for b := 0; b < np; b++ {
					jtj[a][b] += jac[i][a] * jac[i][b]
				}
				jtr[a] += jac[i][a] * res[i]
			}
		}
		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			damped := make([][]float64, np)
			for a := 0; a < np; a++ {
				damped[a] = append([]float64(nil), jtj[a]...)
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
			cand := make([]float64, np)
			for j := range cand {
				cand[j] = p[j] + delta[j]
			}
			clampP(cand)
			candSSE := sse(cand)
			if candSSE < curSSE {
				rel := (curSSE - candSSE) / math.Max(curSSE, 1e-300)
				p = cand
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
		if converged {
			break
		}
	}

	pred := make([]float64, len(ys))
	for i := range xs {
		pred[i] = model(p, xs[i])
	}
	stats := Evaluate(ys, pred)
	stats.Iterations = iters + 1
	if !converged {
		return p, stats, ErrNoConverge
	}
	return p, stats, nil
}
