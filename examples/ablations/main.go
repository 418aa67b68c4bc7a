// Ablations runs the studies beyond the paper's own evaluation: the
// fitted-model-vs-netlist optimization ablation, the delay-composition
// ablation, the drowsy-cell extension, temperature and technology-node
// sensitivity, and the program-level energy view through the CPU model.
//
//	go run ./examples/ablations
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/exp"
)

func main() {
	env := exp.NewQuickEnv()
	arts, err := env.RunExperimentsCtx(context.Background(), exp.Extensions())
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range arts {
		fmt.Println(a.Render())
	}
}
