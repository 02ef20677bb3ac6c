package cluster

import (
	"testing"
	"time"
)

// fakeClock is an advanceable time source for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(clk *fakeClock, th int) *Breaker {
	return NewBreaker(th, time.Second, clk.now)
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Report(false)
		if b.State() != BreakerClosed {
			t.Fatalf("opened after %d failures (threshold 3)", i+1)
		}
	}
	b.Allow()
	b.Report(false)
	if b.State() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside cooldown")
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)
	b.Allow()
	b.Report(false) // open
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown expired but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}
	b.Report(true)
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close the circuit")
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

func TestBreakerHalfOpenProbeReopens(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)
	b.Allow()
	b.Report(false)
	clk.advance(time.Second)
	b.Allow()
	b.Report(false) // probe failed
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	// A fresh cooldown applies from the failed probe.
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call before the new cooldown expired")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused after the new cooldown")
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3)
	b.Allow()
	b.Report(false)
	b.Allow()
	b.Report(false)
	b.Allow()
	b.Report(true) // reset
	for i := 0; i < 2; i++ {
		b.Allow()
		b.Report(false)
	}
	if b.State() != BreakerClosed {
		t.Fatal("failure count was not reset by a success")
	}
}

// TestBreakerSheddingHasNoSideEffects: Shedding is the advisory twin of
// Allow — it must report what Allow would say without consuming the
// half-open probe slot or forcing a state transition.
func TestBreakerSheddingHasNoSideEffects(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 1)

	if b.Shedding() {
		t.Fatal("closed breaker sheds")
	}
	b.Report(false) // threshold 1: opens
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after tripping, want open", b.State())
	}
	if !b.Shedding() {
		t.Fatal("open breaker within cooldown does not shed")
	}

	// Cooldown expired: the next Allow may probe, so Shedding must say
	// "not shedding" — but without transitioning to half-open or
	// claiming the probe itself.
	clk.advance(time.Second)
	for i := 0; i < 3; i++ {
		if b.Shedding() {
			t.Fatal("expired-open breaker sheds")
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("Shedding transitioned the breaker to %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("Shedding consumed the half-open probe")
	}

	// While the probe is in flight, further calls shed.
	if !b.Shedding() {
		t.Fatal("half-open breaker with a probe in flight does not shed")
	}
	b.Report(true)
	if b.Shedding() {
		t.Fatal("closed (recovered) breaker sheds")
	}
}
