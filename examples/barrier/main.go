// Barrier: the registered "barrier" sweep scenario through the public
// facade. The scenario (internal/patterns, re-exported as
// lrscwait.KindBarrier) sweeps central / tree / butterfly barriers
// with spinning, backoff-spinning and Mwait-sleeping waiters across
// core counts — the "polling even for non-atomic variables" problem
// the paper's Mwait instruction solves shows up directly as the gap
// between the spin and mwait curves.
//
// This demo is intentionally thin: it declares a SweepJob and lets the
// engine expand, schedule and render it, exactly like
// `sweep -kind barrier`.
//
// Run with: go run ./examples/barrier
package main

import (
	"fmt"
	"log"

	lrscwait "repro"
)

func main() {
	job := lrscwait.SweepJob{
		Kind: lrscwait.KindBarrier,
		Topo: "small",
		// Defaults otherwise: all three variants, core counts swept in
		// powers of two up to the topology. Restricting the waiters keeps
		// the demo quick while preserving the spin-vs-sleep contrast.
		Params: map[string]string{lrscwait.PatternParamWait: "spin,mwait"},
	}
	results, st, err := lrscwait.RunSweeps(job)
	if err != nil {
		log.Fatalf("barrier sweep: %v", err)
	}
	fmt.Print(results[0].Table().String())
	fmt.Printf("\n%d points simulated in %s (%d workers)\n",
		st.Executed, st.Elapsed.Round(1_000_000), st.Workers)
	fmt.Println("lower is better: cycles per barrier crossing, averaged over all participating cores")
}
