// Address-bus campaign: reproduces the paper's Fig. 11 — per-interconnect
// individual and cumulative crosstalk defect coverage of the MA test
// programs — with a rank job on the campaign manager (the same path xtalkd
// serves): each line's MA tests run as their own program over a freshly
// generated Gaussian defect library.
//
// Expected shape (paper §5): the MA tests for the centre interconnects have
// the most coverage, the side interconnects' tests have little or none (no
// perturbation pushes their small nominal coupling past Cth), and the
// cumulative coverage reaches 100%.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/report"
)

func main() {
	size := flag.Int("size", 300, "defect library size (paper: 1000)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	job, err := campaign.New(campaign.Config{}).Submit(campaign.Spec{
		Bus: "addr", Type: campaign.TypeRank, Size: *size, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	<-job.Done()
	an, ok := job.Analysis()
	if !ok {
		log.Fatalf("rank job ended %s: %v", job.Status().State, job.Err())
	}
	r := an.Rank
	over := make([]int, len(r.Wires))
	for i, w := range r.Wires {
		over[i] = w.OverThreshold
	}
	fmt.Printf("defect library: %d defects; over-threshold victims per wire: %v\n", r.Defects, over)

	chart := report.NewBarChart("Fig 11: defect coverage per address-bus MA test group")
	for _, w := range r.Wires {
		chart.Add(fmt.Sprintf("line %2d", w.Wire+1), w.Individual, w.Cumulative)
	}
	fmt.Print(chart.String())
	fmt.Printf("\ncumulative coverage: %.1f%% (paper: 100%%)\n", r.Wires[len(r.Wires)-1].Cumulative*100)
}
