// Wide-bus campaign: runs the full crosstalk defect-simulation flow on the
// synthetic scripted-bus backend instead of the Parwan SoC — the same MAF
// model, channel arithmetic, batched engine and set-cover minimization,
// applied to a 16/32/64-wire unidirectional bus driven by a scripted
// initiator.
//
// Expected shape: every defect the Gaussian library accepts is detected
// (the MA pairs maximize each victim's aggression, as on Parwan's busses),
// the screening sweep clears clean defects without execution, and the
// minimized program covers all attributed defects with far fewer than the
// full 4N tests.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/defects"
	"repro/internal/sim"
	"repro/internal/target"
)

func main() {
	width := flag.Int("width", 32, "bus width in wires (2..64)")
	size := flag.Int("size", 200, "defect library size")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	tgt, err := target.WideBus(*width)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		log.Fatal(err)
	}
	prog := plan.Programs[0]
	fmt.Printf("target %s: %d MA tests (4N for N=%d), %d-step script\n",
		tgt.Name(), len(prog.Applied), *width, len(prog.Script))

	models, err := tgt.BusModels(0)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := defects.Generate(models[0].Nominal, models[0].Thresholds,
		defects.Config{Size: *size, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("defect library: %d defects (acceptance %.3g)\n",
		len(lib.Defects), lib.AcceptanceRate())

	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		log.Fatal(err)
	}
	res, err := r.Campaign(0, lib)
	if err != nil {
		log.Fatal(err)
	}
	st := r.Stats()
	fmt.Printf("campaign: %d/%d detected (%.1f%%), %d swept clean, %d fallbacks\n",
		res.Detected, res.Total, res.Coverage()*100, st.BatchScreened, st.Fallbacks)

	// The same spec the CLI's `-target widebusN` flag builds, run through
	// the campaign manager's minimize job: greedy set cover over the
	// detection-set dictionary, then byte-identity verification of the
	// minimized program.
	mgr := campaign.New(campaign.Config{})
	job, err := mgr.Submit(campaign.Spec{
		Target: tgt.Name(),
		Bus:    "bus",
		Type:   campaign.TypeMinimize,
		Size:   *size,
		Seed:   *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		log.Fatal(err)
	}
	an, ok := job.Analysis()
	if !ok {
		log.Fatal("minimize job produced no analysis")
	}
	m := an.Minimize
	fmt.Printf("minimize: %d of %d tests cover all %d attributed defects (%.1f%% reduction)\n",
		len(m.Chosen), m.FullTests, m.Coverable, m.Reduction*100)
	if m.Verification != nil && m.Verification.Identical {
		fmt.Printf("verification: detection vectors byte-identical (%d/%d detected)\n",
			m.Verification.MinDetected, m.Verification.Total)
	}
}
