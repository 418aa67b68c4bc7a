package circuit_test

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/units"
)

// A netlist aggregates per-transistor leakage states; evaluating it at two
// operating points shows the knobs at work.
func ExampleNetlist_LeakagePower() {
	tech := device.Default65nm()
	// 1024 identical inverters with balanced input statistics.
	bank := &circuit.Netlist{Name: "bank"}
	bank.AddChild(circuit.Inverter("inv", tech.WMin, 0.5), 1024)

	for _, op := range []device.OperatingPoint{device.OP(0.20, 10), device.OP(0.45, 13)} {
		l := bank.LeakagePower(tech, op)
		fmt.Printf("%v: total=%s\n", op, units.FormatSI(l.Total(), "W"))
	}
	// Output:
	// (Vth=0.20V, Tox=10.0A): total=32.9uW
	// (Vth=0.45V, Tox=13.0A): total=479nW
}

// Logical-effort chain sizing: the delay of driving a big load grows only
// logarithmically once the chain is allowed to widen stage by stage.
func ExampleOptimalChain() {
	tech := device.Default65nm()
	op := device.OP(0.25, 11)
	cin := tech.GateCap(tech.WMin, op)
	for _, fanout := range []float64{16, 256, 4096} {
		ch := circuit.OptimalChain(tech, op, cin, fanout*cin)
		fmt.Printf("F=%4.0f: %d stages, %.0f ps\n", fanout, ch.Stages, units.ToPS(ch.Delay(tech, op, cin, fanout*cin)))
	}
	// Output:
	// F=  16: 2 stages, 33 ps
	// F= 256: 4 stages, 67 ps
	// F=4096: 7 stages, 100 ps
}
