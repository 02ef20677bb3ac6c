package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pool"
)

type ctxProc struct {
	work  int64
	spins int64
}

func (p *ctxProc) ID() int                 { return 3 }
func (p *ctxProc) NumProcs() int           { return 8 }
func (p *ctxProc) Now() machine.Time       { return 0 }
func (p *ctxProc) Work(c machine.Time)     { p.work += c }
func (p *ctxProc) Idle(machine.Time)       {}
func (p *ctxProc) Access(*machine.SyncVar) {}
func (p *ctxProc) Spin()                   { p.spins++ }

func TestCtxBasics(t *testing.T) {
	pr := &ctxProc{}
	c := &Ctx{pr: pr}
	icb := pool.NewICB(1, 5, nil)
	c.bind(icb, false)
	c.begin(2)
	if c.Proc() != 3 || c.NumProcs() != 8 {
		t.Errorf("proc identity wrong: %d/%d", c.Proc(), c.NumProcs())
	}
	c.Work(42)
	if pr.work != 42 {
		t.Errorf("work = %d", pr.work)
	}
	// Doall context: dependence hooks are no-ops.
	c.AwaitDep()
	c.PostDep()
	if pr.spins != 0 {
		t.Error("doall AwaitDep spun")
	}
}

func TestCtxDoacrossIdempotence(t *testing.T) {
	pr := &ctxProc{}
	c := &Ctx{pr: pr}
	icb := pool.NewICB(1, 5, nil)
	d := lowsched.NewDoacross(5, 1)
	icb.Sync = d
	c.bind(icb, true)

	c.begin(1) // no predecessor
	c.AwaitDep()
	c.PostDep()
	c.PostDep() // idempotent: must not double-post
	if !d.Posted(1) || d.Posted(2) {
		t.Error("post state wrong after iteration 1")
	}
	c.begin(2)
	c.AwaitDep() // predecessor 1 posted: returns without spinning
	c.AwaitDep() // idempotent
	if pr.spins != 0 {
		t.Errorf("await spun %d times although predecessor posted", pr.spins)
	}
}

func TestStatsSnapshotString(t *testing.T) {
	// Two shards: the snapshot must merge per-processor counters.
	s := obs.NewSpine(2, int(numCounters))
	s.Shard(0).Add(cIterations, 4)
	s.Shard(1).Add(cIterations, 3)
	s.Shard(0).Add(cSearches, 2)
	s.Shard(1).Add(cO1Time, 11)
	s.Shard(0).Add(cSearchSweeps, 3)
	s.Shard(0).Add(cSearchWalked, 5)
	s.Shard(1).Add(cSearchSweeps, 1)
	s.Shard(1).Add(cSearchLockFailures, 2)
	snap := snapshotOf(s.Totals())
	if snap.Iterations != 7 || snap.Searches != 2 || snap.O1Time != 11 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Search.Sweeps != 4 || snap.Search.Walked != 5 || snap.Search.LockFailures != 2 {
		t.Errorf("search stats = %+v", snap.Search)
	}
	if str := snap.String(); !strings.Contains(str, "iters=7") {
		t.Errorf("String = %q", str)
	}
}

// TestStatsSpineCoversAllCounters: every counter ID has a slot in the
// spine and lands in exactly one Snapshot field, and every counter
// field of the Snapshot is fed by one.
func TestStatsSpineCoversAllCounters(t *testing.T) {
	s := obs.NewSpine(2, int(numCounters))
	for id := obs.ID(0); id < numCounters; id++ {
		s.Shard(int(id)%2).Add(id, int64(id)+1)
	}
	fields := map[int64]int{} // value → how many int64 fields hold it
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int64:
				fields[f.Int()]++
			case reflect.Struct:
				walk(f)
			}
		}
	}
	walk(reflect.ValueOf(snapshotOf(s.Totals())))
	for id := obs.ID(0); id < numCounters; id++ {
		if n := fields[int64(id)+1]; n != 1 {
			t.Errorf("counter %d lands in %d Snapshot fields, want 1", id, n)
		}
	}
	if n := fields[0]; n != 0 {
		t.Errorf("%d Snapshot counter field(s) read no counter", n)
	}
}

func TestRunRejectsNilEngineButAllowsNilScheme(t *testing.T) {
	nest := loopir.MustBuild(func(b *loopir.B) {
		b.DoallLeaf("A", loopir.Const(1), func(e loopir.Env, iv loopir.IVec, j int64) {})
	})
	prog, _ := compileStd(t, nest)
	if _, err := Run(prog, Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	// Nil scheme defaults to SS.
	rep, err := Run(prog, Config{Engine: machine.NewReal(machine.RealConfig{P: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scheme != "SS" {
		t.Errorf("default scheme = %q, want SS", rep.Scheme)
	}
}
