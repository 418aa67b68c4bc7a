// Command characterize runs the circuit-level characterization of one cache
// over the (Vth, Tox) grid — the repository's stand-in for the paper's
// "extensive HSPICE simulation" — and prints the per-component samples
// and/or the fitted analytical model coefficients.
//
// Usage:
//
//	characterize -size 16384                # fitted models + fit quality
//	characterize -size 16384 -samples       # raw grid samples as CSV
//	characterize -size 524288 -l2 -samples
//	characterize -size 524288 -l2 -timeout 30s
//
// SIGINT/SIGTERM cancel the characterization between components (exit 130
// with a partial-progress note); -timeout bounds the run the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cachecfg"
	"repro/internal/charlib"
	"repro/internal/cli"
	"repro/internal/components"
	"repro/internal/device"
	"repro/internal/model"
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
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size    = fs.Int("size", 16*1024, "cache capacity in bytes")
		l2      = fs.Bool("l2", false, "use the canonical L2 organization instead of L1")
		samples = fs.Bool("samples", false, "dump raw characterization samples as CSV")
		timeout = fs.Duration("timeout", 0, "abort the run after this duration (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	prog := cli.NewProgress("characterize", "components", nil)

	cfg := cachecfg.L1(*size)
	if *l2 {
		cfg = cachecfg.L2(*size)
	}
	tech := device.Default65nm()
	cache, err := components.New(tech, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "characterize:", err)
		return 1
	}

	grid := charlib.DefaultGrid()
	if *samples {
		fmt.Fprintln(stdout, "component,vth_v,tox_a,leak_w,sub_w,gate_w,delay_s,energy_j")
		for pi, p := range components.Parts() {
			if err := ctx.Err(); err != nil {
				prog.Hook()(pi, len(components.Parts()))
				return cli.Report("characterize", err, prog, stderr)
			}
			ss, err := charlib.Characterize(cache.Part(p), grid)
			if err != nil {
				fmt.Fprintln(stderr, "characterize:", err)
				return 1
			}
			for _, s := range ss {
				fmt.Fprintf(stdout, "%s,%g,%g,%g,%g,%g,%g,%g\n", //lint:allow floatfmt device-scale CSV (leakage ~1e-9 W) needs scientific notation; the -samples schema is a published contract
					p, s.Vth, s.ToxA, s.LeakW, s.SubW, s.GateW, s.DelayS, s.EnergyJ)
			}
		}
		return 0
	}

	fmt.Fprintf(stdout, "characterizing %v over %d grid points per component\n", cfg, grid.Points())
	for pi, p := range components.Parts() {
		if err := ctx.Err(); err != nil {
			prog.Hook()(pi, len(components.Parts()))
			return cli.Report("characterize", err, prog, stderr)
		}
		ss, err := charlib.Characterize(cache.Part(p), grid)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return 1
		}
		lm, ls, err := model.FitLeakage(ss)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return 1
		}
		dm, ds, err := model.FitDelay(ss)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return 1
		}
		em, es, err := model.FitEnergy(ss)
		if err != nil {
			fmt.Fprintln(stderr, "characterize:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n%s:\n", p)
		fmt.Fprintf(stdout, "  leakage: %v   (%v)\n", lm, ls)
		fmt.Fprintf(stdout, "  delay:   %v   (%v)\n", dm, ds)
		fmt.Fprintf(stdout, "  energy:  E(T) = %.3g + %.3g*T J   (%v)\n", em.E0, em.E1, es)
		// Show the corners for scale.
		fast := ss[0]
		slow := ss[len(ss)-1]
		fmt.Fprintf(stdout, "  corners: fast (%.2fV,%.0fA) leak=%s delay=%.0fps | slow (%.2fV,%.0fA) leak=%s delay=%.0fps\n",
			fast.Vth, fast.ToxA, units.FormatSI(fast.LeakW, "W"), units.ToPS(fast.DelayS),
			slow.Vth, slow.ToxA, units.FormatSI(slow.LeakW, "W"), units.ToPS(slow.DelayS))
	}
	return 0
}
