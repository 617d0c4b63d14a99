package main

import (
	"fmt"
	"sort"

	"flexsp/internal/costmodel"
	"flexsp/internal/planner"
)

// checkFlat validates a homogeneous-cluster plan against the batch it was
// requested for: every micro-plan passes MicroPlan.Validate (device budget,
// per-group memory, coverage of its own sequences) and the micro-plans
// together assign every sequence of the batch exactly once.
func checkFlat(c costmodel.Coeffs, batch []int, plans []planner.MicroPlan) error {
	return checkPlans(batch, plans, func(mp planner.MicroPlan, lens []int) error {
		return mp.Validate(c, lens)
	})
}

// checkPlaced is checkFlat for a plan on a live elastic snapshot: each
// micro-plan passes MicroPlan.ValidatePlaced against the snapshot's fleet.
func checkPlaced(h costmodel.HeteroCoeffs, batch []int, plans []planner.MicroPlan) error {
	return checkPlans(batch, plans, func(mp planner.MicroPlan, lens []int) error {
		return mp.ValidatePlaced(h, lens)
	})
}

func checkPlans(batch []int, plans []planner.MicroPlan, validate func(planner.MicroPlan, []int) error) error {
	if len(batch) > 0 && len(plans) == 0 {
		return fmt.Errorf("no micro-plans for a %d-sequence batch", len(batch))
	}
	var got []int
	for i, mp := range plans {
		var lens []int
		for _, g := range mp.Groups {
			lens = append(lens, g.Lens...)
		}
		if err := validate(mp, lens); err != nil {
			return fmt.Errorf("micro-plan %d: %w", i, err)
		}
		got = append(got, lens...)
	}
	return sameMultiset(batch, got)
}

// sameMultiset reports whether got assigns exactly the sequences of want:
// none lost, none duplicated, none invented.
func sameMultiset(want, got []int) error {
	if len(want) != len(got) {
		return fmt.Errorf("plan assigns %d sequences, batch has %d", len(got), len(want))
	}
	a := append([]int(nil), want...)
	b := append([]int(nil), got...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("plan's sequence lengths differ from the batch's (first at sorted rank %d: %d vs %d)", i, b[i], a[i])
		}
	}
	return nil
}

func totalTokens(lens []int) float64 {
	t := 0
	for _, l := range lens {
		t += l
	}
	return float64(t)
}
