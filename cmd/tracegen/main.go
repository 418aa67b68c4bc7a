// Command tracegen writes a synthetic memory-reference trace to stdout or a
// file, one access per line ("R 0xADDR" / "W 0xADDR"), for use with external
// cache simulators or for inspecting the calibrated workloads. A suite and
// seed name the stream scenario and figures simulate for that workload and
// seed (trace.Suite).
//
// SIGINT/SIGTERM abort generation cleanly (no partial final line is left
// unflushed; exit 130 with a partial-progress note); -timeout bounds long
// generations the same way.
//
// Usage:
//
//	tracegen -suite spec2000 -n 100000 > spec.trace
//	tracegen -suite tpcc -n 1000000 -seed 7 -o tpcc.trace
//	tracegen -suite tpcc -n 1000000000 -timeout 1m -o huge.trace
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/trace"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// ctxCheckStride is how many trace lines are written between context
// checks: cancellation lands within a few thousand accesses.
const ctxCheckStride = 4096

// run is the testable entry point: context, flags and IO come from the
// caller and the exit status is returned instead of calling os.Exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite   = fs.String("suite", "spec2000", "workload: spec2000, specweb or tpcc")
		n       = fs.Int("n", 100_000, "number of accesses")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("o", "", "output file (default stdout)")
		timeout = fs.Duration("timeout", 0, "abort generation after this duration (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	p, ok := trace.Suite(*suite, *seed)
	if !ok {
		fmt.Fprintf(stderr, "tracegen: unknown suite %q\n", *suite)
		return 1
	}
	g, err := trace.New(p)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}

	var w io.Writer = stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)

	for i := 0; i < *n; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			// Flush what was generated so the output ends on a whole line,
			// then report the cancellation.
			if err := bw.Flush(); err != nil {
				fmt.Fprintln(stderr, "tracegen:", err)
			}
			prog := cli.NewProgress("tracegen", "accesses", nil)
			prog.Hook()(i, *n)
			return cli.Report("tracegen", ctx.Err(), prog, stderr)
		}
		a := g.Next()
		op := byte('R')
		if a.Write {
			op = 'W'
		}
		fmt.Fprintf(bw, "%c 0x%x\n", op, a.Addr)
	}
	// A failed flush or close means a truncated trace: report it in the
	// exit status so pipelines do not consume partial output.
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
	}
	return 0
}
