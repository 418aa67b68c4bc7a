// Command cacheleak optimizes the (Vth, Tox) assignment of one cache under
// a delay constraint, reproducing the paper's Section 4 methodology from
// the command line.
//
// Usage:
//
//	cacheleak -size 16384 -scheme 2 -frac 0.5
//	cacheleak -size 65536 -block 64 -assoc 8 -delay-ps 900
//	cacheleak -size 16384 -curve 8
//
// With -curve N it prints the leakage/delay frontier at N budgets instead
// of a single optimization. SIGINT/SIGTERM cancel a long search cleanly
// (exit 130); -timeout bounds the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/cachecfg"
	"repro/internal/cli"
	"repro/internal/components"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/units"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: context, flags and IO come from the
// caller and the exit status is returned instead of calling os.Exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cacheleak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size    = fs.Int("size", 16*1024, "cache capacity in bytes")
		block   = fs.Int("block", 32, "block size in bytes")
		assoc   = fs.Int("assoc", 4, "associativity")
		outBits = fs.Int("out", 64, "data output width in bits")
		scheme  = fs.Int("scheme", 2, "assignment scheme: 1, 2 or 3")
		delayPS = fs.Float64("delay-ps", 0, "delay budget in ps, overriding -frac (0 = use -frac)")
		frac    = fs.Float64("frac", 0.5, "delay budget as a fraction of the feasible range")
		curve   = fs.Int("curve", 0, "print a frontier of N budgets instead of one point")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	cfg := cachecfg.Config{
		Name:       "cache",
		SizeBytes:  *size,
		BlockBytes: *block,
		Assoc:      *assoc,
		OutputBits: *outBits,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "cacheleak:", err)
		return 1
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"frac", *frac}, {"delay-ps", *delayPS}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			fmt.Fprintf(stderr, "cacheleak: -%s must be finite, got %s\n", f.name, strconv.FormatFloat(f.v, 'f', -1, 64))
			return 1
		}
	}
	if *delayPS < 0 {
		fmt.Fprintf(stderr, "cacheleak: -delay-ps must not be negative, got %s\n", strconv.FormatFloat(*delayPS, 'f', -1, 64))
		return 1
	}
	var sch opt.Scheme
	switch *scheme {
	case 1:
		sch = opt.SchemeI
	case 2:
		sch = opt.SchemeII
	case 3:
		sch = opt.SchemeIII
	default:
		fmt.Fprintf(stderr, "cacheleak: unknown scheme %d\n", *scheme)
		return 1
	}

	fmt.Fprintf(stdout, "designing %v at 65nm...\n", cfg)
	d, err := core.DesignCache(device.Default65nm(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "cacheleak:", err)
		return 1
	}
	fmt.Fprintf(stdout, "organization: %v\n", d.Cache.Array)
	lo, hi := d.DelayRange()
	fmt.Fprintf(stdout, "feasible access times: %.0f .. %.0f ps\n", units.ToPS(lo), units.ToPS(hi))

	if *curve > 0 {
		frontier, err := d.TradeoffCurveCtx(ctx, sch, *curve)
		if err != nil {
			return cli.Report("cacheleak", err, cli.NewProgress("cacheleak", "budgets", nil), stderr)
		}
		fmt.Fprintf(stdout, "\n%v leakage/delay frontier:\n", sch)
		fmt.Fprintf(stdout, "  %-12s %-14s %s\n", "budget(ps)", "leakage(mW)", "assignment")
		for _, r := range frontier {
			if !r.Feasible {
				continue
			}
			fmt.Fprintf(stdout, "  %-12.0f %-14.4f %v\n", units.ToPS(r.DelayS), units.ToMW(r.LeakageW), r.Assignment)
		}
		return 0
	}

	budget := lo + *frac*(hi-lo)
	if *delayPS > 0 {
		budget = units.FromPS(*delayPS)
	}
	r, err := d.OptimizeLeakageCtx(ctx, sch, budget)
	if err != nil {
		return cli.Report("cacheleak", err, cli.NewProgress("cacheleak", "budgets", nil), stderr)
	}
	if !r.Feasible {
		fmt.Fprintf(stderr, "cacheleak: no assignment meets %.0f ps\n", units.ToPS(budget))
		return 1
	}
	fmt.Fprintf(stdout, "\n%v optimum under %.0f ps:\n", sch, units.ToPS(budget))
	fmt.Fprintf(stdout, "  leakage:     %.4f mW (fitted model)\n", units.ToMW(r.LeakageW))
	leak, delay, energy := d.Evaluate(r.Assignment)
	fmt.Fprintf(stdout, "  verified:    %.4f mW, %.0f ps, %.2f pJ/access (netlist)\n",
		units.ToMW(leak), units.ToPS(delay), units.ToPJ(energy))
	for _, p := range components.Parts() {
		op := r.Assignment[p]
		pl := d.Cache.Part(p).Leakage(op)
		fmt.Fprintf(stdout, "  %-13s %v  leak=%.4f mW (sub %.4f / gate %.4f)\n",
			p.String()+":", op, units.ToMW(pl.Total()), units.ToMW(pl.SubthresholdW), units.ToMW(pl.GateW))
	}
	return 0
}
