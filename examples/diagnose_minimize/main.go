// Example diagnose_minimize demonstrates the diagnosis subsystem end to
// end, straight through the campaign manager (the same path xtalkd serves):
//
//  1. a diagnose job builds the fault dictionary and localizes an observed
//     failure signature to ranked (wire, fault-kind) candidates;
//  2. a minimize job shrinks the test set by greedy set-cover, repairs the
//     context-dependent detections by re-simulation, and proves the
//     minimized program's per-defect detection vector byte-identical to
//     the full program's.
//
// The rank job, the paper's Fig. 11, is examples/addrbus_campaign.
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
)

func main() {
	mgr := campaign.New(campaign.Config{})
	base := campaign.Spec{Bus: "addr", Size: 120, Seed: 1, TargetOnly: true}

	// 1. Fault dictionary + localization of a failure signature: suppose a
	// tester observed exactly these MA tests failing on a returned part.
	diagSpec := base
	diagSpec.Type = campaign.TypeDiagnose
	diagSpec.Signature = []string{"dr[3]/fwd", "gp[2]/fwd"}
	diag := run(mgr, diagSpec).Diagnosis
	fmt.Printf("diagnose: %d/%d defects detected, %d signature classes over %d tests\n",
		diag.Stats.Detected, diag.Stats.Defects, diag.Stats.Classes, diag.Stats.Tests)
	fmt.Printf("self-diagnosis accuracy: top-1 %d/%d, top-3 %d/%d\n",
		diag.Accuracy.TopHit, diag.Accuracy.Evaluated,
		diag.Accuracy.Top3Hit, diag.Accuracy.Evaluated)
	fmt.Printf("signature %v localizes to:\n", diagSpec.Signature)
	for i, c := range diag.Candidates {
		if i == 3 {
			break
		}
		fmt.Printf("  %d. %-10s score %.3f (%d exact dictionary matches)\n",
			i+1, c.Fault, c.Score, c.Exact)
	}
	fmt.Println()

	// 2. Set-cover minimization with verified coverage.
	minSpec := base
	minSpec.Type = campaign.TypeMinimize
	min := run(mgr, minSpec).Minimize
	fmt.Printf("minimize: %d of %d dictionary tests cover all %d attributed defects\n",
		len(min.Chosen), min.FullTests, min.Coverable)
	fmt.Printf("  +%d tests augmented over %d verify rounds (context-dependent detections)\n",
		len(min.Augmented), min.VerifyRounds)
	fmt.Printf("  program: %d -> %d applied tests\n", min.FullProgramTests, min.MinProgramTests)
	v := min.Verification
	if !v.Identical {
		log.Fatalf("verification failed: %d mismatches", len(v.Mismatches))
	}
	fmt.Printf("  verification: %d/%d detected, detection vectors byte-identical (hash %s)\n",
		v.MinDetected, v.Total, v.MinHash[:12])
}

// run submits a spec and waits the job out, returning its analysis.
func run(mgr *campaign.Manager, spec campaign.Spec) *campaign.Analysis {
	job, err := mgr.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		log.Fatal(err)
	}
	an, ok := job.Analysis()
	if !ok {
		log.Fatalf("job %s produced no analysis", job.ID())
	}
	return an
}
