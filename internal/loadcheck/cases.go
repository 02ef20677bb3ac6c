package loadcheck

import "repro/runner"

// Cases is the workload-check registry, keyed by machine class so CI
// can run one class's cases (the workflow runs "typical"; "small" rides
// along in the same suite — both are cheap on the virtual engine).
//
// MaxBytesPerRun, MaxRetainedBytesPerRun and Fairness are
// near-deterministic on the virtual engine, so they are ratchets:
// allocated bytes at measured × 4 (with and without -race agree within
// 3 %), retained bytes at measured × 2, the share exactly (the whole
// backlog is admitted before the first dispatch: 12 gold and 4 bronze
// runs in the window; one run out of place reads 2.2 or 4.33). MinThroughput is wall
// clock on a shared box and stays a floor — bench/ owns that number.
var Cases = []Case{
	{
		// Sustained anonymous load of tiny nests through the default
		// FIFO path: the baseline serving-throughput and per-run
		// allocation check.
		Name:      "steady_tiny",
		Class:     "typical",
		Scheduler: "fifo",
		Streams: []Stream{
			{Runs: 300, Iters: 32},
		},
		Goals: Goals{
			MinThroughput:  10,
			MaxBytesPerRun: 150_000, // measured 37.5 kB
			// measured 1.35 kB (13.7 kB while a terminal run still held its
			// executor); the ceiling is the ≤ 2.5 kB a terminal run may cost
			MaxRetainedBytesPerRun: 2_500,
		},
	},
	{
		// A bursty heavyweight tenant against a steady lightweight one
		// under wfq: the burst must not capture the dispatch order —
		// the 3:1 weighted share holds over the contended window.
		Name:      "mixed_tenant_burst",
		Class:     "small",
		Scheduler: "wfq",
		Tenants: map[string]runner.Tenant{
			"gold":   {Weight: 3},
			"bronze": {Weight: 1},
		},
		Streams: []Stream{
			{Tenant: "bronze", Runs: 24, Iters: 48, Burst: true},
			{Tenant: "gold", Runs: 24, Iters: 48, Burst: true},
		},
		Goals: Goals{
			MinThroughput:          5,
			MaxBytesPerRun:         75_000, // measured 18.7 kB
			MaxRetainedBytesPerRun: 2_700,  // measured 1.09–1.37 kB over 48 runs
			Fairness: &FairnessGoal{
				Tenants: [2]string{"gold", "bronze"},
				Skip:    8,
				Window:  16,
				Ratio:   3,
			},
		},
	},
	{
		// Sustained load with every run chained into periodic-snapshot
		// legs — the cadence a clustered daemon imposes for failover
		// restore points. The throughput goal bounds what the snapshot
		// machinery may cost the serving path; the memory goal bounds
		// the per-leg snapshot allocations.
		Name:      "chained_snapshots",
		Class:     "typical",
		Scheduler: "fifo",
		Streams: []Stream{
			{Runs: 150, Iters: 32, CheckpointEvery: 4},
		},
		Goals: Goals{
			MinThroughput:          5,
			MaxBytesPerRun:         675_000, // measured 168.5 kB
			MaxRetainedBytesPerRun: 2_700,   // measured 1.36 kB: a done chain parks no snapshot
		},
	},
	{
		// Admission pressure on the small class: a quota-capped tenant
		// floods the box; the box sheds cleanly (typed rejections, no
		// wedge) and completes everything it admitted.
		Name:      "admission_shed",
		Class:     "small",
		Scheduler: "fifo",
		Tenants: map[string]runner.Tenant{
			"capped": {MaxInflight: 4},
		},
		Streams: []Stream{
			{Tenant: "capped", Runs: 64, Iters: 32, Burst: true},
		},
		Goals: Goals{
			MinThroughput:          2,
			MaxBytesPerRun:         120_000, // measured 30.3 kB per completed run, the 60 rejections included
			MaxRetainedBytesPerRun: 2_300,   // measured 1.16 kB per completed run
			MaxShed:                -1,      // shedding is the point
		},
	},
	{
		// The "flat memory" half of ROADMAP item 2's soak gate: thousands
		// of tiny runs, 64 in flight, through one Runner that never
		// forgets a run. What is left per terminal run is its outcome
		// record, not its machine: measured 1.27 kB (13.6 kB before).
		Name:      "soak_tiny",
		Class:     "typical",
		Scheduler: "fifo",
		Streams: []Stream{
			{Runs: 5000, Iters: 8, Window: 64},
		},
		Goals: Goals{
			MaxRetainedBytesPerRun: 2_500,
		},
	},
}
