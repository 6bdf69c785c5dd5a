// Framework: the full in situ cosmology-tools workflow of the paper's
// Figure 4 through the public API — a configuration deck enables several
// level-1 analyses at different cadences, results are published to a live
// HTTP endpoint while the run progresses (the Catalyst role), and the void
// components are tracked across snapshots into a feature tree at the end.
//
// Run with: go run ./examples/framework
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	tess "repro"
)

const deck = `
[tess]
every = 15
blocks = 8
write = false

[halo]
every = 15
linking_length = 0.2
min_members = 8

[voids]
every = 15
blocks = 8

[powerspec]
every = 30
bins = 6
`

func main() {
	log.SetFlags(0)

	simCfg := tess.NewSimConfig(16)
	cfg, err := tess.ParseToolsConfig(strings.NewReader(deck))
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := tess.NewPipeline(cfg, simCfg, "")
	if err != nil {
		log.Fatal(err)
	}

	// Live endpoint (an httptest server keeps the example self-contained;
	// a production run would use http.ListenAndServe).
	live := tess.NewLiveServer()
	srv := httptest.NewServer(live.Handler())
	defer srv.Close()
	fmt.Printf("live results at %s\n\n", srv.URL)

	sim, err := tess.NewSimulation(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	live.Attach(pipeline, 45)
	sim.Run(45, func(s *tess.Simulation) {
		for _, r := range pipeline.Step(s, 45) {
			fmt.Printf("step %3d  %-10s %s\n", r.Step, r.Analysis, r.Summary)
		}
	})
	if err := pipeline.Err(); err != nil {
		log.Fatal(err)
	}

	// Query the live endpoint the way an external viewer would.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		log.Fatal(err)
	}
	var status tess.LiveStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nlive status: step %d/%d, %d particles\n",
		status.Step, status.TotalSteps, status.Particles)

	// Track the voids across the three snapshots.
	tree, err := pipeline.VoidTree(0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvoid evolution (feature tree events):")
	for i := 0; i+1 < len(tree.Snapshots); i++ {
		events, err := tree.EventsAt(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  step %d -> %d: ", tree.Snapshots[i].Step, tree.Snapshots[i+1].Step)
		counts := map[string]int{}
		for _, e := range events {
			counts[e.Type.String()]++
		}
		fmt.Printf("%v\n", counts)
	}
	if len(tree.Snapshots) > 0 && len(tree.Snapshots[0].Features) > 0 {
		fmt.Printf("\nlineage of the largest initial void: feature indices %v\n",
			tree.Lineage(0))
	}
}
