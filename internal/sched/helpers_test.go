package sched

// mustLookup resolves a built-in workload; the table is fixed, so a miss is
// a programming error.
func mustLookup(name string) Workload {
	w, err := LookupWorkload(name)
	if err != nil {
		panic(err)
	}
	return w
}

// PathCount returns the Compute hook of the built-in pathcount workload:
// sources get 1, and every other node the sum of its parents' counts, in
// wrapping uint64 arithmetic (deterministic and therefore directly
// comparable with the serial reference). work adds W iterations of busy
// arithmetic per node to emulate the Nabbit NodeWork knob.
func PathCount(work int) Compute {
	return mustLookup(DefaultWorkload).Compute(work)
}
