package loadcheck

import "repro/runner"

// Cases is the workload-check registry, keyed by machine class so CI
// can run one class's cases (the workflow runs "typical"; "small" rides
// along in the same suite — both are cheap on the virtual engine).
//
// MaxBytesPerRun and Fairness are near-deterministic on the virtual
// engine, so they are ratchets: bytes at measured × 4 (with and without
// -race agree within 3 %), the share exactly (the whole backlog is
// admitted before the first dispatch: 12 gold and 4 bronze runs in the
// window; one run out of place reads 2.2 or 4.33). MinThroughput is wall
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
			MinThroughput:  5,
			MaxBytesPerRun: 75_000, // measured 18.7 kB
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
			MinThroughput:  5,
			MaxBytesPerRun: 675_000, // measured 168.5 kB
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
			MinThroughput:  2,
			MaxBytesPerRun: 120_000, // measured 30.3 kB per completed run, the 60 rejections included
			MaxShed:        -1,      // shedding is the point
		},
	},
}
