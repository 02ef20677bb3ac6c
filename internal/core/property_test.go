package core

import (
	"fmt"
	"testing"

	"repro/internal/descr"
	"repro/internal/loopir"
	"repro/internal/lowsched"
	"repro/internal/machine"
	"repro/internal/refexec"
	"repro/internal/vmachine"
	"repro/internal/workload"
)

// TestPropertyRandomProgramsVirtual executes hundreds of random programs
// on the virtual machine and verifies each against the sequential
// reference executor: identical instance multisets and per-instance
// iteration counts. Schemes and processor counts rotate with the seed.
func TestPropertyRandomProgramsVirtual(t *testing.T) {
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 2}, lowsched.GSS{}, lowsched.TSS{}, lowsched.FSC{}, lowsched.AFS{},
	}
	procs := []int{1, 2, 3, 8}
	n := int64(400)
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nest := workload.Random(seed, workload.DefaultRandConfig())
			std, err := nest.Standardize()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := descr.Compile(std)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refexec.Run(std)
			if err != nil {
				t.Fatal(err)
			}
			tr := newRecTracer()
			rep, err := Run(prog, Config{
				Engine: vmachine.New(vmachine.Config{
					P:          procs[seed%int64(len(procs))],
					AccessCost: 3 + seed%5,
				}),
				Scheme: schemes[seed%int64(len(schemes))],
				Sink:   tr,
			})
			if err != nil {
				t.Fatalf("Run: %v\nprogram:\n%s", err, std)
			}
			verifyAgainstRef(t, prog, ref, tr, rep)
			if t.Failed() {
				t.Logf("program:\n%s", std)
			}
		})
	}
}

// TestPropertyDeepRandomPrograms stresses deep nesting: depth-5 programs
// with wider sequences and larger bounds, virtual machine only.
func TestPropertyDeepRandomPrograms(t *testing.T) {
	cfg := workload.RandConfig{MaxDepth: 5, MaxSeq: 4, MaxBound: 5, AllowZeroTrip: true, Grain: 5}
	n := int64(120)
	if testing.Short() {
		n = 20
	}
	schemes := []lowsched.Scheme{lowsched.SS{}, lowsched.GSS{}, lowsched.FSC{}, lowsched.AFS{}}
	for seed := int64(9000); seed < 9000+n; seed++ {
		nest := workload.Random(seed, cfg)
		std, err := nest.Standardize()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := descr.Compile(std)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refexec.Run(std)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Iterations > 200000 {
			continue // keep the soak bounded
		}
		tr := newRecTracer()
		rep, err := Run(prog, Config{
			Engine: vmachine.New(vmachine.Config{P: int(seed%8) + 1, AccessCost: 2}),
			Scheme: schemes[seed%int64(len(schemes))],
			Sink:   tr,
		})
		if err != nil {
			t.Fatalf("seed %d: %v"+"\nprogram:\n%s", seed, err, std)
		}
		verifyAgainstRef(t, prog, ref, tr, rep)
		if t.Failed() {
			t.Fatalf("seed %d program:"+"\n%s", seed, std)
		}
	}
}

// TestPropertyRandomProgramsReal repeats a smaller sweep on the real
// goroutine machine (true concurrency, exercised under -race in CI runs).
func TestPropertyRandomProgramsReal(t *testing.T) {
	n := int64(120)
	if testing.Short() {
		n = 25
	}
	schemes := []lowsched.Scheme{lowsched.SS{}, lowsched.CSS{K: 3}, lowsched.GSS{}}
	for seed := int64(1000); seed < 1000+n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nest := workload.Random(seed, workload.DefaultRandConfig())
			std, err := nest.Standardize()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := descr.Compile(std)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refexec.Run(std)
			if err != nil {
				t.Fatal(err)
			}
			tr := newRecTracer()
			rep, err := Run(prog, Config{
				Engine: machine.NewReal(machine.RealConfig{P: 4}),
				Scheme: schemes[seed%int64(len(schemes))],
				Sink:   tr,
			})
			if err != nil {
				t.Fatalf("Run: %v\nprogram:\n%s", err, std)
			}
			verifyAgainstRef(t, prog, ref, tr, rep)
		})
	}
}

// TestClassicWorkloadsAllSchemes runs every named workload under every
// scheme on the virtual machine, verified against the reference, and
// checks work conservation (total busy time equals the reference's total
// work).
func TestClassicWorkloadsAllSchemes(t *testing.T) {
	builders := map[string]func() *loopir.Nest{
		"adjoint":    func() *loopir.Nest { return workload.AdjointConvolution(30, 3) },
		"triangular": func() *loopir.Nest { return workload.Triangular(12, 5) },
		"wavefront":  func() *loopir.Nest { return workload.Wavefront(30, 1, 4, 9) },
		"branchy":    func() *loopir.Nest { return workload.Branchy(9, 4, 2, 50, 5) },
		"many":       func() *loopir.Nest { return workload.ManyInstances(5, 20, 3, 7) },
	}
	schemes := []lowsched.Scheme{
		lowsched.SS{}, lowsched.CSS{K: 2}, lowsched.GSS{}, lowsched.TSS{}, lowsched.FSC{},
	}
	for name, mk := range builders {
		for _, s := range schemes {
			t.Run(name+"/"+s.Name(), func(t *testing.T) {
				prog, ref := compileStd(t, mk())
				tr := newRecTracer()
				rep, err := Run(prog, Config{
					Engine: vmachine.New(vmachine.Config{P: 4, AccessCost: 5}),
					Scheme: s,
					Sink:   tr,
				})
				if err != nil {
					t.Fatal(err)
				}
				verifyAgainstRef(t, prog, ref, tr, rep)
				if got := rep.TotalBusy(); got != ref.TotalWork {
					t.Errorf("busy time = %d, want %d (work conservation)", got, ref.TotalWork)
				}
			})
		}
	}
}
