// Package grid sits on an execution-stack path, so both ctxflow rules
// apply: no conjured root contexts, and exported looping entry points
// must take a context.
package grid

import "context"

// Eval is the context-aware leaf everything below calls.
func Eval(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// RunCtx is the context-first entry point.
func RunCtx(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += Eval(ctx, i)
	}
	return total
}

// Run has the F -> FCtx wrapper shape: delegating to RunCtx does not
// excuse the conjured root.
func Run(n int) int {
	return RunCtx(context.Background(), n) // want `context\.Background\(\) in library code`
}

// Seed conjures a root context without being a wrapper.
func Seed(n int) int {
	ctx := context.Background() // want `context\.Background\(\) in library code`
	return Eval(ctx, n)
}

// Sketch does the same with TODO.
func Sketch(n int) int {
	return Eval(context.TODO(), n) // want `context\.TODO\(\) in library code`
}

// Job carries a stored context into a loop.
type Job struct {
	Ctx context.Context
	N   int
}

// Drain loops over context-aware work without taking a context, so
// cancellation cannot reach the loop from the caller.
func (j Job) Drain() int { // want `exported Drain loops over context-aware work but takes no context\.Context`
	total := 0
	for i := 0; i < j.N; i++ {
		total += Eval(j.Ctx, i)
	}
	return total
}
