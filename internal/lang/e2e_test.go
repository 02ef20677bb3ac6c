package lang

import (
	"testing"

	"repro/internal/core"
	"repro/internal/descr"
	"repro/internal/lowsched"
	"repro/internal/refexec"
	"repro/internal/trace"
	"repro/internal/vmachine"
)

// TestParsedProgramsThroughScheduler runs mini-language programs through
// the full two-level scheduler and verifies exactly-once execution and
// macro-dataflow precedence.
func TestParsedProgramsThroughScheduler(t *testing.T) {
	programs := map[string]string{
		"fig1": `
doall I = 1..2 {
  doall A = 1..4 { work 100 }
  doall J = 1..2 { doall B = 1..4 { work 100 } }
  serial K = 1..2 {
    doall C = 1..4 { work 100 }
    doall D = 1..4 { work 100 }
  }
  doall E = 1..4 { work 100 }
}
if (1 == 1) { doall F = 1..4 { work 100 } } else { doall G = 1..4 { work 100 } }
doall H = 1..4 { work 100 }`,
		"pipeline": `
serial K = 1..4 {
  doall INIT = 1..5-K { work 20 }
}
doacross(1) WAVE = 1..40 {
  await
  work 10
  post
  work 90
}`,
		"triangular-branchy": `
doall I = 1..6 {
  if (I % 2 == 0) {
    doall HV = 1..I*3 { work I * 10 }
  } else {
    serial S = 1..2 { doall LT = 1..2 { work 5 } }
  }
}`,
	}
	for name, src := range programs {
		for _, scheme := range []lowsched.Scheme{lowsched.SS{}, lowsched.GSS{}} {
			t.Run(name+"/"+scheme.Name(), func(t *testing.T) {
				nest, err := Parse(src)
				if err != nil {
					t.Fatal(err)
				}
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
				log := trace.New()
				rep, err := core.Run(prog, core.Config{
					Engine: vmachine.New(vmachine.Config{P: 6, AccessCost: 4}),
					Scheme: scheme,
					Sink:   log,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := log.VerifyExactlyOnceIn(prog, ref, refexec.Context{}); err != nil {
					t.Errorf("exactly-once: %v", err)
				}
				if err := log.VerifyPrecedence(prog, descr.BuildGraph(prog)); err != nil {
					t.Errorf("precedence: %v", err)
				}
				if rep.TotalBusy() != ref.TotalWork {
					t.Errorf("busy %d != reference work %d", rep.TotalBusy(), ref.TotalWork)
				}
			})
		}
	}
}
