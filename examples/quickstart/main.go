// Quickstart: generate the software-based self-test plan for the Parwan
// CPU-memory system, run it on a defect-free chip, then on a chip with a
// crosstalk defect, and compare the unloaded responses — the paper's whole
// flow in one file.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// 1. Generate the self-test plan: 64 data-bus and up to 48 address-bus
	// maximum-aggressor tests embedded into Parwan programs.
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		log.Fatal(err)
	}
	dTotal, _ := plan.AppliedOn(core.DataBus)
	aTotal, _ := plan.AppliedOn(core.AddrBus)
	fmt.Printf("plan: %d data-bus tests, %d address-bus tests, %d session program(s)\n",
		dTotal, aTotal, len(plan.Programs))

	// 2. Golden run on the defect-free busses.
	addr, data, err := sim.DefaultSetups()
	if err != nil {
		log.Fatal(err)
	}
	runner, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %d CPU cycles (paper's system: 1720)\n", runner.GoldenCycles())

	// 3. Manufacture a defective chip: Gaussian process variation raised
	// wire 6's coupling on the address bus past the detectability
	// threshold Cth.
	defective := addr.Nominal.Clone()
	scale := 1.25 * addr.Thresholds.Cth / defective.NetCoupling(6)
	for j := 0; j < defective.Width; j++ {
		if j != 6 {
			defective.Cc[6][j] *= scale
			defective.Cc[j][6] *= scale
		}
	}
	fmt.Printf("injected defect: wire 6 net coupling %.0f fF (Cth = %.0f fF)\n",
		defective.NetCoupling(6)*1e15, addr.Thresholds.Cth*1e15)

	// 4. Run the self-test on the defective chip and compare responses.
	out, err := runner.RunDefect(core.AddrBus, defective)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defect detected: %v\n", out.Detected)
	if names := out.DetectedBy.Names(); len(names) > 0 {
		fmt.Println("detected by MA tests:")
		for _, name := range names {
			fmt.Printf("  %s\n", name)
		}
	}

	// 5. Sanity check: the golden parameters are not flagged.
	clean, err := runner.RunDefect(core.AddrBus, addr.Nominal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defect-free chip flagged: %v\n", clean.Detected)
}
