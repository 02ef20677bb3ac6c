// Package obs is the sharded statistics spine of the executor and its
// services.
//
// Two primitives cover the two reporting regimes:
//
//   - Spine: a fixed set of counters declared up front, stored as one
//     shard per processor. Writers touch only their own shard (no
//     cross-processor cache-line traffic on the hot scheduling path);
//     readers merge the shards on demand, so live probes can sample a
//     running execution at any time without stopping it.
//   - Registry: process-lifetime counters and gauges for services
//     (run managers, HTTP front ends), rendered in the Prometheus text
//     exposition format.
//
// Recording through the spine charges no machine time — it is host-side
// bookkeeping, part of the zero-cost observer contract the kernel's event
// sinks (core.Config.Sink) share.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Desc declares one spine counter.
type Desc struct {
	// Name is the counter's identifier within its spine, in snake_case.
	Name string
	// Help is a one-line description.
	Help string
	// Unit is a display unit ("count", "vtime", "ns", "bytes").
	Unit string
}

// ID indexes a counter within a Spine; IDs are assigned in declaration
// order, so packages can declare them as iota constants parallel to
// their Desc slice.
type ID int

// Spine is a sharded counter block: len(descs) counters × nshards
// shards. The zero value is not usable; construct with NewSpine.
type Spine struct {
	descs  []Desc
	shards []Shard
}

// Shard is one writer's private counter block. A shard must only be
// written by its owning processor/goroutine; reads may come from
// anywhere (values are atomics, merged by the Spine on read). All
// shards share one backing array with the per-shard stride rounded up
// to a cache line, so a spine costs a constant number of allocations
// while shards of different processors still do not share lines.
type Shard struct {
	vals []atomic.Int64
}

// shardStride rounds a counter count up so consecutive shards start on
// separate 64-byte cache lines of the shared backing array.
func shardStride(ncounters int) int {
	const per = 8 // 64-byte line / 8-byte atomic.Int64
	return (ncounters + per - 1) / per * per
}

// NewSpine returns a spine with the given shard count (one per
// processor, at least 1) over the declared counters.
func NewSpine(nshards int, descs []Desc) *Spine {
	if nshards < 1 {
		nshards = 1
	}
	for i, d := range descs {
		if d.Name == "" {
			panic("obs: counter with empty name")
		}
		for _, prev := range descs[:i] {
			if prev.Name == d.Name {
				panic(fmt.Sprintf("obs: duplicate counter %q", d.Name))
			}
		}
	}
	stride := shardStride(len(descs))
	vals := make([]atomic.Int64, nshards*stride)
	s := &Spine{descs: descs, shards: make([]Shard, nshards)}
	for i := range s.shards {
		s.shards[i] = Shard{vals: vals[i*stride : i*stride+len(descs) : i*stride+stride]}
	}
	return s
}

// NumShards returns the shard count.
func (s *Spine) NumShards() int { return len(s.shards) }

// NumCounters returns the declared counter count.
func (s *Spine) NumCounters() int { return len(s.descs) }

// Descs returns the counter declarations in ID order.
func (s *Spine) Descs() []Desc { return s.descs }

// Shard returns shard i for its owning writer.
func (s *Spine) Shard(i int) *Shard { return &s.shards[i] }

// Add adds v to the shard's counter id.
func (sh *Shard) Add(id ID, v int64) { sh.vals[id].Add(v) }

// Inc increments the shard's counter id.
func (sh *Shard) Inc(id ID) { sh.vals[id].Add(1) }

// Get returns the shard's own value of counter id.
func (sh *Shard) Get(id ID) int64 { return sh.vals[id].Load() }

// Total merges counter id across all shards.
func (s *Spine) Total(id ID) int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.vals[id].Load()
	}
	return n
}

// Totals merges every counter across all shards, indexed by ID.
func (s *Spine) Totals() []int64 {
	out := make([]int64, len(s.descs))
	for _, sh := range s.shards {
		for i := range out {
			out[i] += sh.vals[i].Load()
		}
	}
	return out
}

// Sum merges only the requested counters across all shards, writing
// totals into out (out[i] accumulates ids[i]; len(out) must be at least
// len(ids)). It is the cheap read path for samplers that poll a small
// counter subset repeatedly — the adaptive scheduler's fitter samples a
// handful of counters at every instance activation — doing one shard
// traversal with zero allocation instead of merging the whole spine.
func (s *Spine) Sum(ids []ID, out []int64) {
	for i := range ids {
		out[i] = 0
	}
	for _, sh := range s.shards {
		for i, id := range ids {
			out[i] += sh.vals[id].Load()
		}
	}
}

// View is a window into a shard starting at a base ID. Subsystems that
// declare their own counter block relative to zero (e.g. the task
// pool's SEARCH counters) record through a View placed at the base the
// spine owner assigned them, so one spine serves several packages
// without shared ID constants.
type View struct {
	sh   *Shard
	base ID
}

// ViewAt returns a view of sh whose local counter 0 is spine counter
// base.
func ViewAt(sh *Shard, base ID) View { return View{sh: sh, base: base} }

// Add adds v to local counter i.
func (v View) Add(i int, n int64) { v.sh.vals[int(v.base)+i].Add(n) }

// Inc increments local counter i.
func (v View) Inc(i int) { v.sh.vals[int(v.base)+i].Add(1) }

// Registry holds process-lifetime counters and gauges for services.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	vecs     []*CounterVec
	gauges   []gauge
	byName   map[string]bool
}

// Counter is a monotone registry counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add adds v (v >= 0 for monotone semantics; not enforced).
func (c *Counter) Add(v int64) { c.v.Add(v) }

// Inc increments the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

type gauge struct {
	name, help string
	fn         func() float64
	// label and vec make a labeled family: vec returns label value →
	// sample at render time.
	label string
	vec   func() map[string]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]bool{}} }

// Counter registers (or returns the existing) counter with the given
// name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge", name))
	}
	r.byName[name] = true
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	return c
}

// CounterVec is a family of monotone counters sharing one metric name,
// distinguished by the value of a single label (e.g. tenant). Children
// are created on first use and live for the registry's lifetime, so the
// label must be low-cardinality (tenant keys, not run IDs).
type CounterVec struct {
	name, help, label string

	mu   sync.Mutex
	kids map[string]*Counter
}

// CounterVec registers (or returns the existing) labeled counter family
// with the given name. A family and a plain metric cannot share a name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.vecs {
		if v.name == name {
			return v
		}
	}
	if r.byName[name] {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.byName[name] = true
	v := &CounterVec{name: name, help: help, label: label, kids: map[string]*Counter{}}
	r.vecs = append(r.vecs, v)
	return v
}

// With returns the family's counter for the given label value, creating
// it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.kids[value]
	if c == nil {
		c = &Counter{name: v.name}
		v.kids[value] = c
	}
	return c
}

// Values snapshots the family as label value → counter value.
func (v *CounterVec) Values() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.kids))
	for k, c := range v.kids {
		out[k] = c.Value()
	}
	return out
}

// promBlock renders the family: HELP/TYPE once for the bare name, one
// sample line per label value, sorted for stable output.
func (v *CounterVec) promBlock() string {
	var sb strings.Builder
	promHeader(&sb, v.name, v.help, "counter")
	v.mu.Lock()
	vals := make([]string, 0, len(v.kids))
	for k := range v.kids {
		vals = append(vals, k)
	}
	sort.Strings(vals)
	for _, k := range vals {
		// %q escapes backslash, double quote and newline exactly as the
		// Prometheus text exposition format requires for label values.
		fmt.Fprintf(&sb, "%s{%s=%q} %d\n", v.name, v.label, k, v.kids[k].Value())
	}
	v.mu.Unlock()
	return sb.String()
}

// Gauge registers a callback gauge: fn is evaluated at render time.
// Registering a name twice panics.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.byName[name] = true
	r.gauges = append(r.gauges, gauge{name: name, help: help, fn: fn})
}

// GaugeVec registers a callback gauge family distinguished by one
// low-cardinality label (a peer name, not a run ID): fn is evaluated at
// render time and returns label value → sample. Registering a name
// twice panics.
func (r *Registry) GaugeVec(name, help, label string, fn func() map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("obs: metric %q already registered", name))
	}
	r.byName[name] = true
	r.gauges = append(r.gauges, gauge{name: name, help: help, label: label, vec: fn})
}

// promBlock renders the gauge: one unlabeled sample, or for a family
// one sample per label value, sorted for stable output.
func (g gauge) promBlock() string {
	if g.vec == nil {
		return promLine(g.name, g.help, "gauge", g.fn())
	}
	var sb strings.Builder
	promHeader(&sb, g.name, g.help, "gauge")
	vals := g.vec()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s{%s=%q} %g\n", g.name, g.label, k, vals[k])
	}
	return sb.String()
}

// WriteProm renders the registry in the Prometheus text exposition
// format, metrics sorted by name.
func (r *Registry) WriteProm(sb *strings.Builder) {
	type entry struct {
		name, block string
	}
	r.mu.Lock()
	entries := make([]entry, 0, len(r.counters)+len(r.vecs)+len(r.gauges))
	for _, c := range r.counters {
		entries = append(entries, entry{c.name, promLine(c.name, c.help, "counter", float64(c.v.Load()))})
	}
	for _, v := range r.vecs {
		entries = append(entries, entry{v.name, v.promBlock()})
	}
	for _, g := range r.gauges {
		entries = append(entries, entry{g.name, g.promBlock()})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		sb.WriteString(e.block)
	}
}

func promHeader(sb *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(sb, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(sb, "# TYPE %s %s\n", name, typ)
}

func promLine(name, help, typ string, v float64) string {
	var sb strings.Builder
	promHeader(&sb, name, help, typ)
	if v == float64(int64(v)) {
		fmt.Fprintf(&sb, "%s %d\n", name, int64(v))
	} else {
		fmt.Fprintf(&sb, "%s %g\n", name, v)
	}
	return sb.String()
}
